// The serve.* per-layer metrics: an in-process serve::Server loading a
// campaign's artifact cache, its engine, protocol codec and reload path
// timed by calling the public serve functions from here, and one open-loop
// step over two connections for the queue's shed/timeout counts.
//
// Traffic: node states recorded from a held-out simulation of the served
// controller, each sent twice — once for the live key (the DBN rung) and
// once for a key the cache lacks (the LSA fallback rung) — so both rungs
// carry the same request count, as in bench/serve_bench's per-rung
// scenarios. Each open-loop request is timed from its due time, and how
// late the generator itself ran is reported.
#include <sched.h>
#include <sys/prctl.h>

#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/artifact_cache.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "nvp/node_sim.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "task/benchmarks.hpp"

namespace perfbench {
namespace {

using namespace solsched;

constexpr std::uint64_t kUnknownKey = 0x404ULL;
constexpr std::size_t kConnections = 2;

/// Records the node state the served policy sees at every period start,
/// as wire queries.
class QueryRecorder final : public nvp::Scheduler {
 public:
  QueryRecorder(nvp::Scheduler& inner, std::uint64_t key)
      : inner_(&inner), key_(key) {}

  std::string name() const override { return inner_->name(); }
  void begin_trace(const task::TaskGraph& graph, const nvp::NodeConfig& config,
                   const solar::SolarTrace& trace) override {
    inner_->begin_trace(graph, config, trace);
  }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override {
    serve::QueryRequest q;
    q.controller_key = key_;
    q.day = static_cast<std::uint32_t>(ctx.day);
    q.period = static_cast<std::uint32_t>(ctx.period);
    q.selected_cap = static_cast<std::uint32_t>(ctx.bank->selected_index());
    for (std::size_t h = 0; h < ctx.bank->size(); ++h) {
      q.cap_voltages.push_back(ctx.bank->at(h).voltage_v());
      if (ctx.bank->at(h).dead()) q.dead_mask |= 1ULL << h;
    }
    q.accumulated_dmr = ctx.accumulated_dmr;
    q.last_period_solar_w = ctx.last_period_solar_w;
    queries.push_back(std::move(q));
    return inner_->begin_period(ctx);
  }
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override {
    return inner_->schedule_slot(ctx);
  }

  std::vector<serve::QueryRequest> queries;

 private:
  nvp::Scheduler* inner_;
  std::uint64_t key_;
};

/// The served controller, its running server and the traffic it answers.
struct Deployment {
  std::string cache_dir;  ///< ArtifactCache the server loads.
  std::uint64_t key = 0;  ///< The live controller's key.
  std::string socket;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::QueryRequest> known;    ///< DBN-rung queries.
  std::vector<serve::QueryRequest> unknown;  ///< Same states, missing key.
  /// encode_decision bytes an in-process engine gives for known / unknown.
  std::vector<std::vector<std::uint8_t>> expect_known, expect_unknown;
};

std::unique_ptr<serve::Server> start_server(const Deployment& d) {
  serve::Server::Options options;
  options.socket_path = d.socket;
  options.cache_dir = d.cache_dir;
  options.workers = 2;
  options.queue_depth = 64;
  options.status_interval_ms = 0;
  auto server = std::make_unique<serve::Server>(options);
  server->start();
  serve::ServeClient::Options copts;
  copts.socket_path = options.socket_path;
  serve::ServeClient probe(copts);
  if (probe.ping() != serve::ServeClient::Result::kOk)
    throw std::runtime_error("server did not answer a ping");
  return server;
}

/// Query pool from a held-out simulation of the served (deserialized)
/// controller, and the reference replies of an in-process engine.
void build_traffic(const Args& args, Deployment& d) {
  using solar::DayKind;
  core::TrainedController served;
  if (!campaign::ArtifactCache(d.cache_dir).load(d.key, &served))
    throw std::runtime_error("served artifact unreadable");
  auto policy = core::make_proposed(served);
  QueryRecorder recorder(*policy, d.key);
  const solar::SolarTrace held_out =
      weather_trace(args.scale, args.seed ^ 0x5EEDF00Dull,
                    {DayKind::kClear, DayKind::kPartlyCloudy,
                     DayKind::kOvercast, DayKind::kPartlyCloudy});
  (void)nvp::simulate(task::wam_benchmark(), held_out, recorder, served.node);
  d.known = std::move(recorder.queries);
  serve::DecisionEngine reference({d.cache_dir, 0});
  reference.load_all();
  for (const serve::QueryRequest& q : d.known) {
    serve::QueryRequest u = q;
    u.controller_key = kUnknownKey;
    d.unknown.push_back(u);
    d.expect_known.push_back(serve::encode_decision(
        reference.decide(q, std::numeric_limits<std::uint64_t>::max()).reply));
    d.expect_unknown.push_back(serve::encode_decision(
        reference.decide(u, std::numeric_limits<std::uint64_t>::max()).reply));
  }
}

struct Sample {
  double late_us = 0.0;  ///< Send time minus due time.
  bool ok = false;
  bool fallback = false;  ///< Sent for the unknown key.
  std::uint32_t query = 0;
  serve::DecisionReply reply;
};

struct Step {
  std::vector<Sample> samples;
  std::uint64_t shed = 0, timeouts = 0;
};

/// One open-loop step: request i is due at i / rate; connection c sends
/// the requests with i % kConnections == c, each when due or as soon as
/// its previous reply arrived.
Step open_loop(const Deployment& d, double rate, double seconds) {
  Step step;
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  step.samples.resize(n);
  const serve::ServeStats::Snapshot before = d.server->stats();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < kConnections; ++c)
    senders.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      serve::ServeClient::Options options;
      options.socket_path = d.socket;
      options.max_attempts = 1;  // A refusal is a failure, not a retry.
      serve::ServeClient client(options);
      for (std::size_t i = c; i < n; i += kConnections) {
        const Clock::time_point due =
            t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                     1e9 * static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        Sample& s = step.samples[i];
        s.fallback = (i / kConnections) % 2 == 1;
        s.query = static_cast<std::uint32_t>((i * 7919) % d.known.size());
        s.late_us = 1000.0 * ms_between(due, Clock::now());
        s.ok = client.query(s.fallback ? d.unknown[s.query] : d.known[s.query],
                            &s.reply) == serve::ServeClient::Result::kOk;
      }
    });
  for (std::thread& t : senders) t.join();
  const serve::ServeStats::Snapshot after = d.server->stats();
  step.shed = after.shed - before.shed;
  step.timeouts = after.timeouts - before.timeouts;
  return step;
}

/// Output check: every request succeeded and every served decision equals
/// the in-process engine's bytes for the same query.
void check_step(const Deployment& d, const Step& step, Tamper tamper,
                Result& out) {
  std::size_t mismatched = 0, failed = 0;
  for (std::size_t i = 0; i < step.samples.size(); ++i) {
    const Sample& s = step.samples[i];
    out.attempt();
    if (!s.ok) {
      ++failed;
      continue;
    }
    std::vector<std::uint8_t> got = serve::encode_decision(s.reply);
    if (tamper == Tamper::kReply && i == 1) got.back() ^= 1;
    const auto& want =
        s.fallback ? d.expect_unknown[s.query] : d.expect_known[s.query];
    if (got != want) ++mismatched;
  }
  if (failed + mismatched > 0)
    out.fail(std::to_string(failed) + " served requests failed, " +
                 std::to_string(mismatched) +
                 " served decisions differ from the in-process engine",
             failed + mismatched);
}

/// Median per-call time (µs) of `fn`, over batches of `per_batch` calls.
template <typename Fn>
double per_call_us(Fn&& fn, std::size_t batches, std::size_t per_batch) {
  std::vector<double> v;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) fn(b * per_batch + i);
    v.push_back(1000.0 * ms_since(t0) / static_cast<double>(per_batch));
  }
  return median(std::move(v));
}

/// The serve layer metrics; returns whether the engine timed in-process
/// gives the served bytes for every query.
bool traced_layers(const Deployment& d, double seconds, Tamper tamper,
                   Result& out) {
  serve::DecisionEngine engine({d.cache_dir, 0});
  engine.load_all();
  const std::size_t n = d.known.size();
  const std::uint64_t unbounded = std::numeric_limits<std::uint64_t>::max();
  const double decide_dbn = per_call_us(
      [&](std::size_t i) { (void)engine.decide(d.known[i % n], unbounded); },
      50, 200);
  const double decide_fallback = per_call_us(
      [&](std::size_t i) { (void)engine.decide(d.unknown[i % n], unbounded); },
      50, 200);

  std::vector<std::vector<std::uint8_t>> query_frames, reply_frames;
  for (std::size_t i = 0; i < n; ++i) {
    query_frames.push_back(serve::encode_frame(
        serve::FrameType::kQuery, serve::encode_query(d.known[i])));
    reply_frames.push_back(
        serve::encode_frame(serve::FrameType::kDecision, d.expect_known[i]));
  }
  serve::DecisionReply decoded_reply;
  (void)serve::decode_decision(d.expect_known[0].data(),
                               d.expect_known[0].size(), &decoded_reply);
  const double encode =
      per_call_us(
          [&](std::size_t i) {
            (void)serve::encode_frame(serve::FrameType::kQuery,
                                      serve::encode_query(d.known[i % n]));
          },
          50, 200) +
      per_call_us(
          [&](std::size_t) {
            (void)serve::encode_frame(serve::FrameType::kDecision,
                                      serve::encode_decision(decoded_reply));
          },
          50, 200);
  const auto decode_frame = [](const std::vector<std::uint8_t>& frame,
                               auto&& decode_payload) {
    serve::FrameHeader header;
    if (serve::decode_header(frame.data(), frame.size(), &header) !=
            serve::FrameVerdict::kOk ||
        serve::verify_payload(header, frame.data() + serve::kFrameHeaderSize,
                              header.payload_len) != serve::FrameVerdict::kOk)
      throw std::runtime_error("benchmark frame failed to decode");
    decode_payload(header, frame.data() + serve::kFrameHeaderSize);
  };
  const double decode =
      per_call_us(
          [&](std::size_t i) {
            decode_frame(query_frames[i % n], [](const serve::FrameHeader& h,
                                                 const std::uint8_t* p) {
              serve::QueryRequest q;
              (void)serve::decode_query(p, h.payload_len, h.version, &q);
            });
          },
          50, 200) +
      per_call_us(
          [&](std::size_t i) {
            decode_frame(reply_frames[i % n], [](const serve::FrameHeader& h,
                                                 const std::uint8_t* p) {
              serve::DecisionReply r;
              (void)serve::decode_decision(p, h.payload_len, &r);
            });
          },
          50, 200);

  // Closed-loop round trips on one connection: what is left after the
  // engine and the codec is the reader -> queue -> worker -> write handoff.
  serve::ServeClient::Options options;
  options.socket_path = d.socket;
  serve::ServeClient client(options);
  std::vector<double> rtt_us, reload_ms;
  serve::DecisionReply reply;
  for (std::size_t i = 0; i < 4000; ++i) {
    const auto t0 = Clock::now();
    if (client.query(d.known[i % n], &reply) != serve::ServeClient::Result::kOk)
      throw std::runtime_error("closed-loop query failed");
    rtt_us.push_back(1000.0 * ms_since(t0));
  }
  for (int i = 0; i < 40; ++i) {
    serve::ReloadReply ack;
    const auto t0 = Clock::now();
    if (client.reload(d.key, &ack) != serve::ServeClient::Result::kOk ||
        !ack.ok)
      throw std::runtime_error("reload failed");
    reload_ms.push_back(ms_since(t0));
  }
  const double rtt = median(rtt_us);

  // The open-loop step runs at half the rate one closed-loop connection
  // just sustained: loaded, but below the knee, so shed or timed-out
  // requests there point at the server rather than at the rate.
  const Step step = open_loop(d, 0.5e6 / rtt, seconds);
  check_step(d, step, tamper, out);
  std::vector<double> late;
  for (const Sample& s : step.samples) late.push_back(s.late_us);

  out.metric("serve.engine_decide_us.dbn", decide_dbn, "us");
  out.metric("serve.engine_decide_us.no_controller", decide_fallback, "us");
  out.metric("serve.encode_us", encode, "us");
  out.metric("serve.decode_us", decode, "us");
  out.metric("serve.handoff_us", rtt - decide_dbn - encode - decode, "us");
  out.metric("serve.reload_ms", median(reload_ms), "ms");
  out.metric("serve.shed", static_cast<double>(step.shed), "count");
  out.metric("serve.timeouts", static_cast<double>(step.timeouts), "count");
  out.metric("serve.loadgen_late_us", percentile(late, 99.0), "us");
  // The timed engine must be the served one: same bytes for every query.
  bool faithful = true;
  for (std::size_t i = 0; i < n; ++i)
    faithful = faithful && serve::encode_decision(
                               engine.decide(d.known[i], unbounded).reply) ==
                               d.expect_known[i];
  return faithful;
}

/// Confines the process — server, clients, every thread they start — to
/// the first CPU it may use. Across CPUs each request pays several
/// cross-CPU wake-ups, and on a VM those cost whatever the host's
/// scheduling of the other vCPU happens to be.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
}

}  // namespace

bool measure_serve_layers(const Args& args, const std::string& cache_dir,
                          std::uint64_t key, double seconds, Result& out) {
  pin_to_one_cpu();
  const WorkDir work("serve_layers");
  Deployment d;
  d.cache_dir = cache_dir;
  d.key = key;
  d.socket = work.sub("sock");
  d.server = start_server(d);
  build_traffic(args, d);
  (void)open_loop(d, 2000.0, 0.3);  // Warm-up.
  const bool faithful = traced_layers(d, seconds, args.tamper, out);
  d.server->stop();
  return faithful;
}

}  // namespace perfbench
