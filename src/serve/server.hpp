// The solsched-serve daemon core: socket accept loop, bounded request
// queue, worker pool, backpressure, timeouts and the status file.
//
// Threading model (DESIGN.md §16):
//  * one accept thread, one connection-reader thread per client;
//  * a bounded FIFO between readers and a util::ThreadPool of decision
//    workers — a reader that finds the queue full sheds the request with a
//    typed SERVE_OVERLOADED reply immediately (backpressure is explicit,
//    memory stays bounded, the daemon never stalls its readers);
//  * workers re-check each request's deadline on dequeue (a request that
//    died waiting gets SERVE_TIMEOUT, not a late decision) and pass the
//    remaining budget to the engine, which degrades to the LSA fallback
//    when inference cannot fit;
//  * one status thread rewrites status.json (util::atomic_replace, never
//    torn; the shared envelope of obs/status.hpp, kind "serve") on a fixed
//    cadence and a final "finished" snapshot on shutdown.
//
// Every reply to a query passes the optional ServeFaultPlan hook
// (drop/delay/corrupt), which the adversarial client tests drive.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/serve_faults.hpp"
#include "obs/slo.hpp"
#include "obs/status.hpp"
#include "obs/tsdb.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_stats.hpp"
#include "util/thread_pool.hpp"

namespace solsched::serve {

class Server {
 public:
  struct Options {
    std::string socket_path;   ///< AF_UNIX listening address.
    std::string cache_dir;     ///< Campaign ArtifactCache with controllers.
    std::string status_path;   ///< status.json location; "" disables it.
    std::size_t workers = 2;   ///< Decision worker threads.
    std::size_t queue_depth = 64;  ///< Bounded queue capacity (>= 1).
    /// Server-side cap on any request's budget (ms); the effective deadline
    /// is the tighter of this and the request's own deadline_ms. 0 = none.
    std::uint64_t request_timeout_ms = 1000;
    std::uint64_t status_interval_ms = 500;  ///< 0 = status only on stop.
    std::uint64_t assume_infer_us = 0;       ///< Engine budget override.
    fault::ServeFaultPlan faults{};          ///< Reply-path fault hook.
    /// Chrome trace dump written on graceful stop (when the sink is
    /// armed); "" disables the flush.
    std::string trace_path;
    /// timeseries.jsonl location; "" disables the store. Sampling rides
    /// the status cadence and is additionally gated on obs::enabled(), so
    /// an obs-off run never allocates the ring.
    std::string timeseries_path;
    std::size_t timeseries_capacity = 720;  ///< Points retained (ring).
    /// SLO targets; default-constructed = SLO evaluation off.
    obs::SloConfig slo{};
  };

  /// Loads every cached controller, binds and listens. Stale socket files
  /// from a killed predecessor are unlinked before bind — a kill -9 must
  /// not brick the address. Throws std::runtime_error on socket failure.
  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept, worker and status threads. Call once.
  void start();

  /// Graceful stop: closes the listener, drains readers, answers queued
  /// requests with SERVE_SHUTTING_DOWN, joins every thread and writes the
  /// final "finished" status. Idempotent.
  void stop();

  /// Blocks until a client kShutdown frame (or request_stop()) arrives.
  void wait();

  /// Arms the same latch wait() watches; safe from any thread.
  void request_stop();

  /// True once a kShutdown frame or request_stop() armed the latch
  /// (pollable alternative to wait() for signal-driven main loops).
  bool stop_requested() const {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    return stop_requested_;
  }

  DecisionEngine& engine() noexcept { return engine_; }
  ServeStats::Snapshot stats() const { return stats_.snapshot(); }
  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

  /// The status.json bytes for the given lifecycle state. Declares
  /// stale_after_ms = 10 · status_interval_ms (0 = no periodic rewrite).
  std::string status_json(obs::RunState state) const;

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
  };
  struct Job {
    std::shared_ptr<Conn> conn;
    QueryRequest query;
    std::uint64_t enqueue_us = 0;
    std::uint64_t deadline_us = 0;  ///< Absolute steady µs; 0 = unbounded.
    /// Wall-clock request timeline (0 unless the trace sink is armed):
    /// frame fully read at recv_wall_us, decode took decode_dur_us, the
    /// job entered the queue at enqueue_wall_us.
    std::uint64_t recv_wall_us = 0;
    std::uint64_t decode_dur_us = 0;
    std::uint64_t enqueue_wall_us = 0;
  };

  void accept_main();
  void connection_main(std::shared_ptr<Conn> conn);
  void worker_main();
  void status_main();
  void handle_query(const std::shared_ptr<Conn>& conn, QueryRequest query,
                    std::uint64_t recv_wall_us, std::uint64_t decode_dur_us);
  void process_job(Job job);

  /// One SLO + time-series sampling step (status thread; also once during
  /// stop() after that thread joined, so the final tick sees the last
  /// counters).
  void observe_tick();

  /// Encodes and writes one frame; query replies pass the fault hook.
  void send_frame(const std::shared_ptr<Conn>& conn, FrameType type,
                  const std::vector<std::uint8_t>& payload,
                  bool query_reply);
  void send_error(const std::shared_ptr<Conn>& conn, ErrorCode code,
                  const std::string& message, bool query_reply);

  /// Writes the time-series ring and status.json. Never throws: a full
  /// disk must not stop the daemon, so a failure goes to stderr once until
  /// a write succeeds again.
  void persist(obs::RunState state);

  Options options_;
  DecisionEngine engine_;
  ServeStats stats_;
  std::unique_ptr<obs::SloEngine> slo_;        ///< Null when SLO-free.
  std::unique_ptr<obs::TimeseriesStore> tsdb_; ///< Lazy; status thread only.
  obs::WriteGuard persist_guard_{"solsched-serve"};  ///< Like tsdb_.

  // Atomic: stop() closes the listener from another thread while
  // accept_main() is reading it into accept().
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> fault_ordinal_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  mutable std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;

  std::mutex conn_mutex_;
  std::vector<std::weak_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;

  std::thread accept_thread_;
  std::thread dispatch_thread_;  ///< Drives the worker pool's run().
  std::thread status_thread_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace solsched::serve
