#include "serve/server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/byte_format.hpp"
#include "util/durable.hpp"

namespace solsched::serve {
namespace {

const std::vector<double>& latency_bounds_ms() {
  static const std::vector<double> bounds = {0.1, 0.5, 1, 5, 10, 50, 100, 500};
  return bounds;
}

/// read() the exact byte count; false on EOF/error before completion.
bool read_exact(int fd, std::uint8_t* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// send() everything, MSG_NOSIGNAL so a vanished client cannot SIGPIPE
/// the daemon; false on error.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Degradation-ladder rung label for a DecisionReply fallback code.
const char* rung_name(std::uint16_t fallback_code) {
  switch (fallback_code) {
    case kFallbackNone: return "hit";
    case kFallbackNoController: return "no_controller";
    case kFallbackCorruptController: return "corrupt";
    case kFallbackBudgetExhausted: return "budget";
    default: return "sched_fallback";  // sched::FallbackReason 1..4.
  }
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      engine_(DecisionEngine::Options{options_.cache_dir,
                                      options_.assume_infer_us}) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.workers == 0) options_.workers = 1;
  if (options_.slo.enabled())
    slo_ = std::make_unique<obs::SloEngine>(
        options_.slo, std::vector<std::uint64_t>(kLatencyBoundsUs.begin(),
                                                 kLatencyBoundsUs.end()));
  const std::size_t loaded = engine_.load_all();
  std::fprintf(stderr, "solsched-serve: %zu controller(s) loaded from %s\n",
               loaded, options_.cache_dir.c_str());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("Server: socket path too long: " +
                             options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("Server: socket(): " +
                             std::string(std::strerror(errno)));
  // A kill -9'd predecessor leaves its socket file behind; rebinding the
  // same address must succeed, so the stale node is removed first.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: bind(" + options_.socket_path +
                             "): " + err);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    throw std::runtime_error("Server: listen(): " + err);
  }
}

Server::~Server() { stop(); }

void Server::start() {
  persist(obs::RunState::kRunning);
  accept_thread_ = std::thread([this] { accept_main(); });
  dispatch_thread_ = std::thread([this] {
    // The worker pool: `workers` long-running loop bodies over the bounded
    // queue. ThreadPool::run blocks this dispatcher (a participant) until
    // every loop exits at shutdown.
    pool_ = std::make_unique<util::ThreadPool>(options_.workers);
    pool_->run(options_.workers, [this](std::size_t) { worker_main(); });
  });
  if (!options_.status_path.empty() && options_.status_interval_ms > 0)
    status_thread_ = std::thread([this] { status_main(); });
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  request_stop();

  // Close the listener to unblock accept(). exchange() claims the fd so
  // the accept loop can never see a half-closed descriptor.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock every connection reader.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& weak : conns_) {
      if (auto conn = weak.lock()) {
        conn->open.store(false, std::memory_order_release);
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& t : conn_threads_)
      if (t.joinable()) t.join();
    conn_threads_.clear();
  }

  // Wake the workers; they drain the queue with SERVE_SHUTTING_DOWN
  // replies and exit.
  queue_cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  pool_.reset();
  if (status_thread_.joinable()) status_thread_.join();

  ::unlink(options_.socket_path.c_str());
  // Final tick after the status thread is gone: the finished snapshot and
  // the time-series tail both reflect the very last counters, and a traced
  // session's spans are flushed rather than lost with the process.
  observe_tick();
  if (!options_.trace_path.empty() && obs::trace_events_enabled())
    obs::write_chrome_trace(options_.trace_path);
  persist(obs::RunState::kFinished);
}

void Server::accept_main() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed by stop().
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn] { connection_main(conn); });
  }
}

void Server::connection_main(std::shared_ptr<Conn> conn) {
  std::vector<std::uint8_t> header(kFrameHeaderSize);
  std::vector<std::uint8_t> payload;
  while (conn->open.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    if (!read_exact(conn->fd, header.data(), header.size())) break;
    FrameHeader fh;
    const FrameVerdict hv = decode_header(header.data(), header.size(), &fh);
    if (hv != FrameVerdict::kOk) {
      // Header-level garbage: the stream has lost framing, so reply with
      // the typed refusal and close — resynchronizing random bytes is not
      // possible, crashing on them is not acceptable.
      stats_.record_malformed();
      OBS_COUNTER_ADD("serve.malformed", 1);
      send_error(conn, ErrorCode::kMalformed,
                 std::string("bad frame header: ") + verdict_name(hv),
                 false);
      break;
    }
    payload.resize(fh.payload_len);
    if (fh.payload_len > 0 &&
        !read_exact(conn->fd, payload.data(), payload.size()))
      break;
    const FrameVerdict pv = verify_payload(fh, payload.data(), payload.size());
    if (pv != FrameVerdict::kOk) {
      // Framing is still aligned (the length was honored), so the
      // connection survives a corrupted payload.
      stats_.record_malformed();
      OBS_COUNTER_ADD("serve.malformed", 1);
      send_error(conn, ErrorCode::kMalformed,
                 std::string("payload rejected: ") + verdict_name(pv), false);
      continue;
    }
    switch (fh.type) {
      case FrameType::kPing:
        send_frame(conn, FrameType::kPong, {}, false);
        break;
      case FrameType::kShutdown:
        send_frame(conn, FrameType::kPong, {}, false);
        request_stop();
        break;
      case FrameType::kReload: {
        std::uint64_t key = 0;
        if (decode_reload(payload.data(), payload.size(), &key) !=
            FrameVerdict::kOk) {
          stats_.record_malformed();
          send_error(conn, ErrorCode::kMalformed, "bad reload payload",
                     false);
          break;
        }
        ReloadReply ack;
        ack.controller_key = key;
        ack.ok = engine_.load_controller(key, &ack.message);
        if (ack.ok) {
          stats_.record_reload();
          OBS_COUNTER_ADD("serve.reloads", 1);
        }
        send_frame(conn, FrameType::kReloadAck, encode_reload_ack(ack),
                   false);
        break;
      }
      case FrameType::kQuery: {
        // Timeline stamps only when the trace sink is armed — the clock
        // reads stay off the obs-off hot path.
        const bool timing = obs::trace_events_enabled();
        const std::uint64_t recv_wall = timing ? obs::wall_us() : 0;
        QueryRequest query;
        if (decode_query(payload.data(), payload.size(), fh.version,
                         &query) != FrameVerdict::kOk) {
          stats_.record_malformed();
          OBS_COUNTER_ADD("serve.malformed", 1);
          send_error(conn, ErrorCode::kMalformed, "bad query payload", true);
          break;
        }
        const std::uint64_t decode_dur =
            timing ? obs::wall_us() - recv_wall : 0;
        handle_query(conn, std::move(query), recv_wall, decode_dur);
        break;
      }
      default:
        // Reply frames arriving at the server are a protocol violation.
        stats_.record_malformed();
        send_error(conn, ErrorCode::kMalformed, "unexpected frame type",
                   false);
        break;
    }
  }
  conn->open.store(false, std::memory_order_release);
  ::close(conn->fd);
}

void Server::handle_query(const std::shared_ptr<Conn>& conn,
                          QueryRequest query, std::uint64_t recv_wall_us,
                          std::uint64_t decode_dur_us) {
  stats_.record_request();
  OBS_COUNTER_ADD("serve.requests", 1);
  if (stopping_.load(std::memory_order_acquire)) {
    send_error(conn, ErrorCode::kShuttingDown, "daemon is draining", true);
    return;
  }
  Job job;
  job.conn = conn;
  job.enqueue_us = obs::now_us();
  job.recv_wall_us = recv_wall_us;
  job.decode_dur_us = decode_dur_us;
  job.enqueue_wall_us = recv_wall_us + decode_dur_us;
  // The effective budget is the tighter of the client's deadline and the
  // server-side cap; 0 on both sides means unbounded.
  std::uint64_t budget_ms = query.deadline_ms;
  if (options_.request_timeout_ms > 0 &&
      (budget_ms == 0 || options_.request_timeout_ms < budget_ms))
    budget_ms = options_.request_timeout_ms;
  job.deadline_us = budget_ms > 0 ? job.enqueue_us + budget_ms * 1000 : 0;
  job.query = std::move(query);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= options_.queue_depth) {
      // Backpressure: the queue is the only unbounded-growth risk on the
      // request path, so it never grows — the reader sheds instead.
      stats_.record_shed();
      OBS_COUNTER_ADD("serve.shed", 1);
      send_error(conn, ErrorCode::kOverloaded, "request queue full", true);
      return;
    }
    queue_.push_back(std::move(job));
    stats_.queue_enter();
    OBS_GAUGE_SET("serve.queue_depth", queue_.size());
  }
  queue_cv_.notify_one();
}

void Server::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // Stopping and drained.
      job = std::move(queue_.front());
      queue_.pop_front();
      stats_.queue_leave();
    }
    if (stopping_.load(std::memory_order_acquire)) {
      send_error(job.conn, ErrorCode::kShuttingDown, "daemon is draining",
                 true);
      continue;
    }
    process_job(std::move(job));
  }
}

void Server::process_job(Job job) {
  const std::uint64_t now = obs::now_us();
  // Traced requests book a wall-clock stage timeline: every clock read
  // below is gated on this so untraced traffic pays nothing extra.
  const bool traced =
      job.query.trace.active() && obs::trace_events_enabled();
  const std::uint64_t trace_id = job.query.trace.trace_id;
  const std::uint64_t dequeue_wall = traced ? obs::wall_us() : 0;
  // Deadline re-check on dequeue: a request that died waiting in the queue
  // gets the typed timeout, never a late decision the node cannot use.
  if (job.deadline_us > 0 && now >= job.deadline_us) {
    stats_.record_timeout();
    OBS_COUNTER_ADD("serve.timeouts", 1);
    send_error(job.conn, ErrorCode::kTimeout, "deadline expired in queue",
               true);
    if (traced) {
      // Even a timed-out request leaves its trace: the whole server-side
      // story was the queue wait.
      obs::record_span_event("serve.req", job.recv_wall_us,
                             obs::wall_us() - job.recv_wall_us, trace_id);
      obs::record_flow_event("serve.request", trace_id, /*start=*/false,
                             dequeue_wall);
      obs::record_span_event("serve.req.decode", job.recv_wall_us,
                             job.decode_dur_us, trace_id);
      obs::record_span_event("serve.req.queue_wait", job.enqueue_wall_us,
                             dequeue_wall - job.enqueue_wall_us, trace_id);
      obs::record_span_event("serve.req.timeout", dequeue_wall, 0, trace_id);
    }
    return;
  }
  const std::uint64_t remaining_us =
      job.deadline_us > 0 ? job.deadline_us - now
                          : ~std::uint64_t{0};
  DecisionEngine::Outcome outcome;
  try {
    outcome = engine_.decide(job.query, remaining_us);
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = {ErrorCode::kInternal, e.what()};
  }
  const std::uint64_t engine_end_wall = traced ? obs::wall_us() : 0;
  if (!outcome.ok) {
    send_error(job.conn, outcome.error.code, outcome.error.message, true);
    if (traced) {
      obs::record_span_event("serve.req", job.recv_wall_us,
                             obs::wall_us() - job.recv_wall_us, trace_id);
      obs::record_flow_event("serve.request", trace_id, /*start=*/false,
                             dequeue_wall);
      obs::record_span_event("serve.req.decode", job.recv_wall_us,
                             job.decode_dur_us, trace_id);
      obs::record_span_event("serve.req.queue_wait", job.enqueue_wall_us,
                             dequeue_wall - job.enqueue_wall_us, trace_id);
      obs::record_span_event("serve.req.engine.error", dequeue_wall,
                             engine_end_wall - dequeue_wall, trace_id);
    }
    return;
  }
  const std::uint64_t latency_us = obs::now_us() - job.enqueue_us;
  stats_.record_decision(latency_us, outcome.reply.fallback_code);
  if (outcome.reply.used_fallback) OBS_COUNTER_ADD("serve.fallbacks", 1);
  // Per-rung counters name which step of the degradation ladder answered.
  switch (outcome.reply.fallback_code) {
    case kFallbackNone:
      OBS_COUNTER_ADD("serve.engine.hit", 1);
      break;
    case kFallbackNoController:
      OBS_COUNTER_ADD("serve.engine.no_controller", 1);
      break;
    case kFallbackCorruptController:
      OBS_COUNTER_ADD("serve.engine.corrupt", 1);
      break;
    case kFallbackBudgetExhausted:
      OBS_COUNTER_ADD("serve.engine.budget", 1);
      break;
    default:
      OBS_COUNTER_ADD("serve.engine.sched_fallback", 1);
      break;
  }
  OBS_COUNTER_ADD("serve.decisions", 1);
  OBS_HISTOGRAM_OBSERVE("serve.request_ms", latency_bounds_ms(),
                        static_cast<double>(latency_us) / 1000.0);
  const std::vector<std::uint8_t> reply_payload =
      encode_decision(outcome.reply);
  const std::uint64_t encode_end_wall = traced ? obs::wall_us() : 0;
  send_frame(job.conn, FrameType::kDecision, reply_payload, true);
  if (traced) {
    const std::uint64_t write_end_wall = obs::wall_us();
    // All spans land on this worker thread's track with wall-clock
    // timestamps, so the client's request span (a different process, same
    // axis) encloses them once the two dumps are merged.
    obs::record_span_event("serve.req", job.recv_wall_us,
                           write_end_wall - job.recv_wall_us, trace_id);
    obs::record_flow_event("serve.request", trace_id, /*start=*/false,
                           dequeue_wall);
    obs::record_span_event("serve.req.decode", job.recv_wall_us,
                           job.decode_dur_us, trace_id);
    obs::record_span_event("serve.req.queue_wait", job.enqueue_wall_us,
                           dequeue_wall - job.enqueue_wall_us, trace_id);
    obs::record_span_event(
        std::string("serve.req.engine.") + rung_name(outcome.reply.fallback_code),
        dequeue_wall, engine_end_wall - dequeue_wall, trace_id);
    obs::record_span_event("serve.req.encode", engine_end_wall,
                           encode_end_wall - engine_end_wall, trace_id);
    obs::record_span_event("serve.req.write", encode_end_wall,
                           write_end_wall - encode_end_wall, trace_id);
  }
}

void Server::send_frame(const std::shared_ptr<Conn>& conn, FrameType type,
                        const std::vector<std::uint8_t>& payload,
                        bool query_reply) {
  std::vector<std::uint8_t> frame = encode_frame(type, payload);
  if (query_reply && options_.faults.any()) {
    const std::uint64_t ordinal =
        fault_ordinal_.fetch_add(1, std::memory_order_relaxed);
    switch (options_.faults.decide(ordinal)) {
      case fault::ServeFault::kNone:
        break;
      case fault::ServeFault::kDrop:
        stats_.record_fault_injected();
        return;  // Swallow the reply; the client's retry machinery owns it.
      case fault::ServeFault::kDelay:
        stats_.record_fault_injected();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.faults.delay_ms));
        break;
      case fault::ServeFault::kCorrupt:
        stats_.record_fault_injected();
        // Flip one byte past the header so the client's payload-hash check
        // trips (an empty payload corrupts the hash field itself).
        frame[frame.size() > kFrameHeaderSize ? kFrameHeaderSize : 12] ^=
            0xFF;
        break;
    }
  }
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!conn->open.load(std::memory_order_acquire)) return;
  if (!write_all(conn->fd, frame.data(), frame.size()))
    conn->open.store(false, std::memory_order_release);
}

void Server::send_error(const std::shared_ptr<Conn>& conn, ErrorCode code,
                        const std::string& message, bool query_reply) {
  if (code != ErrorCode::kMalformed) {
    stats_.record_error();
    OBS_COUNTER_ADD("serve.errors", 1);
  }
  send_frame(conn, FrameType::kError, encode_error({code, message}),
             query_reply);
}

std::string Server::status_json(obs::RunState state) const {
  const ServeStats::Snapshot s = stats_.snapshot();
  std::ostringstream out;
  // The status thread rewrites the file every status_interval_ms; ten
  // missed rewrites mean the daemon is gone. With no periodic rewrite the
  // daemon promises nothing, so the file never goes stale.
  out << obs::status_envelope("serve", state,
                              10 * options_.status_interval_ms);
  out << "  \"pid\": " << ::getpid() << ",\n";
  out << "  \"socket\": \"" << util::json_escape(options_.socket_path)
      << "\",\n";
  out << "  \"controllers\": " << engine_.controller_count() << ",\n";
  out << "  \"workers\": " << options_.workers << ",\n";
  out << "  \"queue_capacity\": " << options_.queue_depth << ",\n";
  out << "  \"queue_depth\": " << s.queue_depth << ",\n";
  out << "  \"queue_peak\": " << s.queue_peak << ",\n";
  out << "  \"requests\": " << s.requests << ",\n";
  out << "  \"decisions\": " << s.decisions << ",\n";
  out << "  \"fallbacks\": " << s.fallbacks << ",\n";
  out << "  \"fallback_no_controller\": " << s.fallback_no_controller
      << ",\n";
  out << "  \"fallback_corrupt\": " << s.fallback_corrupt << ",\n";
  out << "  \"fallback_budget\": " << s.fallback_budget << ",\n";
  out << "  \"fallback_sched\": " << s.fallback_sched << ",\n";
  out << "  \"malformed\": " << s.malformed << ",\n";
  out << "  \"shed\": " << s.shed << ",\n";
  out << "  \"timeouts\": " << s.timeouts << ",\n";
  out << "  \"errors\": " << s.errors << ",\n";
  out << "  \"reloads\": " << s.reloads << ",\n";
  out << "  \"faults_injected\": " << s.faults_injected << ",\n";
  out << "  \"latency_count\": " << s.latency_count << ",\n";
  out << "  \"latency_sum_us\": " << s.latency_sum_us << ",\n";
  out << "  \"p50_us\": " << s.p50_us << ",\n";
  out << "  \"p99_us\": " << s.p99_us << ",\n";
  // Lifetime availability: good verdicts over all verdicts. `errors`
  // already counts every refusal (shed and timeouts included — see
  // send_error), so the denominator is decisions + errors. An idle daemon
  // is fully available.
  const std::uint64_t verdicts = s.decisions + s.errors;
  const double availability =
      verdicts > 0
          ? static_cast<double>(s.decisions) / static_cast<double>(verdicts)
          : 1.0;
  out << "  \"availability\": " << util::format_shortest(availability);
  if (slo_) {
    const obs::SloEngine::Status slo = slo_->status();
    const obs::SloConfig& cfg = slo_->config();
    out << ",\n  \"slo\": {\n";
    out << "    \"target_availability\": "
        << util::format_shortest(cfg.target_availability) << ",\n";
    out << "    \"target_p99_us\": " << cfg.target_p99_us << ",\n";
    out << "    \"fast_window_s\": " << cfg.fast_window_s << ",\n";
    out << "    \"slow_window_s\": " << cfg.slow_window_s << ",\n";
    out << "    \"burn_alert\": "
        << util::format_shortest(cfg.burn_alert) << ",\n";
    out << "    \"availability_fast\": "
        << util::format_shortest(slo.availability_fast) << ",\n";
    out << "    \"availability_slow\": "
        << util::format_shortest(slo.availability_slow) << ",\n";
    out << "    \"burn_fast\": "
        << util::format_shortest(slo.burn_fast) << ",\n";
    out << "    \"burn_slow\": "
        << util::format_shortest(slo.burn_slow) << ",\n";
    out << "    \"p99_fast_us\": " << slo.p99_fast_us << ",\n";
    out << "    \"p99_slow_us\": " << slo.p99_slow_us << ",\n";
    out << "    \"alert_availability\": "
        << (slo.alert_availability ? "true" : "false") << ",\n";
    out << "    \"alert_p99\": " << (slo.alert_p99 ? "true" : "false")
        << ",\n";
    out << "    \"alert\": " << (slo.alerting() ? "true" : "false") << "\n";
    out << "  }";
  }
  out << "\n}\n";
  return out.str();
}

void Server::observe_tick() {
  if (slo_) {
    const ServeStats::Snapshot s = stats_.snapshot();
    obs::SloSample sample;
    sample.wall_ms = obs::wall_us() / 1000;
    // `errors` is the superset refusal counter (shed, timeouts, internal —
    // everything except malformed, which never reached a verdict).
    sample.bad = s.errors;
    sample.total = s.decisions + s.errors;
    sample.latency_buckets.assign(s.latency_buckets.begin(),
                                  s.latency_buckets.end());
    const obs::SloEngine::Status slo = slo_->observe(sample);
    OBS_GAUGE_SET("serve.slo.availability_fast", slo.availability_fast);
    OBS_GAUGE_SET("serve.slo.availability_slow", slo.availability_slow);
    OBS_GAUGE_SET("serve.slo.burn_fast", slo.burn_fast);
    OBS_GAUGE_SET("serve.slo.burn_slow", slo.burn_slow);
    OBS_GAUGE_SET("serve.slo.p99_fast_us", slo.p99_fast_us);
    if (slo.alerting()) OBS_COUNTER_ADD("serve.slo.alert_ticks", 1);
  }
  if (!options_.timeseries_path.empty() && obs::enabled()) {
    if (!tsdb_)
      tsdb_ = std::make_unique<obs::TimeseriesStore>(
          options_.timeseries_capacity);
    tsdb_->sample(obs::wall_us() / 1000,
                  obs::MetricsRegistry::global().snapshot());
  }
}

void Server::persist(obs::RunState state) {
  persist_guard_([&] {
    if (tsdb_) tsdb_->write_jsonl(options_.timeseries_path);
    if (!options_.status_path.empty())
      util::atomic_replace(options_.status_path, status_json(state));
  });
}

void Server::status_main() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_requested_) {
    stop_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.status_interval_ms));
    if (stop_requested_) break;
    lock.unlock();
    observe_tick();
    persist(obs::RunState::kRunning);
    lock.lock();
  }
}

}  // namespace solsched::serve
