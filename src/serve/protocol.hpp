// Wire protocol of the solsched-serve daemon (DESIGN.md §16).
//
// Frames are length-prefixed binary: a fixed 20-byte header (magic, version,
// type, payload length, payload FNV-1a hash) followed by the payload. Every
// integer is little-endian with an explicit width; doubles travel as their
// IEEE-754 bit pattern, so a reply is byte-identical across builds for the
// same decision — the property the tier-1 kill/restart drill compares on.
//
// Robustness contract: decoding never throws and never reads out of bounds.
// Every decode returns a typed verdict the server maps to an ERROR reply
// (SERVE_MALFORMED and friends) — a malformed or adversarial frame must
// cost the daemon one reply, not a crash. Bounds are enforced before any
// allocation sized from the wire (payload <= kMaxPayload, vector counts
// capped), so a hostile length field cannot OOM the process either.
//
// Versioning: version 1 is the baseline wire format; version 2 adds an
// optional trace extension (trace_id + parent_span_id, 16 bytes) to the
// *query* payload only — every other payload is identical in both
// versions. The extension is gated on the header version, so a v1 peer's
// frames still parse unchanged, an untraced query encodes to the exact v1
// bytes, and replies always travel as v1 (byte-identical to the pre-trace
// protocol — the property the tier-1 kill/restart drill compares on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace solsched::serve {

/// Frame header constants. The magic spells "SLSV" on the wire.
inline constexpr std::uint32_t kFrameMagic = 0x56534C53u;
inline constexpr std::uint16_t kProtocolVersion = 1;
/// Version 2 = version 1 plus the trace extension on query payloads.
inline constexpr std::uint16_t kProtocolVersionTraced = 2;
inline constexpr std::uint16_t kMaxProtocolVersion = kProtocolVersionTraced;
inline constexpr std::size_t kFrameHeaderSize = 20;
/// Upper bound on a payload; anything larger is rejected before allocation.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;
/// Bounds on wire-sized vectors inside a query payload.
inline constexpr std::uint32_t kMaxSolarSlots = 4096;
inline constexpr std::uint32_t kMaxCaps = 64;
inline constexpr std::uint32_t kMaxTasks = 64;
inline constexpr std::uint32_t kMaxErrorText = 4096;

/// Frame kinds. Unknown values are a decode error, never a crash.
enum class FrameType : std::uint16_t {
  kQuery = 1,      ///< client -> server: node state, wants a decision.
  kDecision = 2,   ///< server -> client: (cap, alpha, te) answer.
  kError = 3,      ///< server -> client: typed refusal.
  kReload = 4,     ///< client -> server: hot-reload one controller key.
  kReloadAck = 5,  ///< server -> client: reload outcome.
  kPing = 6,       ///< liveness probe.
  kPong = 7,       ///< probe answer (also acknowledges kShutdown).
  kShutdown = 8,   ///< client -> server: drain and exit gracefully.
};

/// Typed error codes carried by kError replies.
enum class ErrorCode : std::uint16_t {
  kMalformed = 1,     ///< Frame or payload failed validation.
  kOverloaded = 2,    ///< Bounded queue full: request shed (back off).
  kTimeout = 3,       ///< Deadline expired before a worker reached it.
  kBadRequest = 4,    ///< Well-formed but unusable (e.g. bank mismatch).
  kShuttingDown = 5,  ///< Daemon is draining; retry elsewhere/later.
  kInternal = 6,      ///< Unexpected server-side failure.
};

/// Fallback codes in DecisionReply. 0 means "none"; 1..4 are the
/// sched::FallbackReason values of PR 3 (non-finite, alpha range,
/// degenerate te, dead cap); 16+ are serve-layer degradations.
inline constexpr std::uint16_t kFallbackNone = 0;
inline constexpr std::uint16_t kFallbackNoController = 16;
inline constexpr std::uint16_t kFallbackCorruptController = 17;
inline constexpr std::uint16_t kFallbackBudgetExhausted = 18;

/// Trace context carried by version-2 query frames. trace_id 0 = untraced
/// (the query encodes as plain v1 bytes); a traced request's id links the
/// client-side span to the server-side stage timeline through Chrome flow
/// events, so two dumps stitch into one picture of the round trip.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  bool active() const noexcept { return trace_id != 0; }
};

/// Deterministic trace-id derivation (splitmix64 over seed + ordinal):
/// loadgen stamps every request with derive_trace_id(seed, n) so a tier-1
/// drill can name the slow request it wants the server-side breakdown of.
/// Never returns 0 (0 means "untraced" on the wire).
std::uint64_t derive_trace_id(std::uint64_t seed, std::uint64_t n) noexcept;

/// One node-state query. Mirrors the DBN input of the proposed scheduler:
/// previous period's measured solar, every capacitor voltage, accumulated
/// DMR — plus the serve-layer envelope (controller key, deadline).
struct QueryRequest {
  std::uint64_t controller_key = 0;  ///< ArtifactCache key (hex filename).
  std::uint32_t day = 0;
  std::uint32_t period = 0;
  std::uint32_t selected_cap = 0;    ///< Currently wired capacitor.
  std::uint64_t dead_mask = 0;       ///< Bit h set = capacitor h stuck dead.
  double accumulated_dmr = 0.0;
  std::uint32_t deadline_ms = 0;     ///< Per-request budget; 0 = unbounded.
  std::vector<double> last_period_solar_w;
  std::vector<double> cap_voltages;
  TraceContext trace;                ///< v2 extension; inactive on v1 frames.
};

/// The header version a query must travel under: v2 when traced, v1 (the
/// exact pre-trace bytes) otherwise.
inline std::uint16_t query_wire_version(const QueryRequest& request) noexcept {
  return request.trace.active() ? kProtocolVersionTraced : kProtocolVersion;
}

/// The (cap, alpha, te) decision. `fallback_code` explains degradation:
/// 0 = the DBN plan was served, anything else = the LSA baseline plan with
/// the given reason.
struct DecisionReply {
  std::uint16_t fallback_code = kFallbackNone;
  bool used_fallback = false;
  bool has_select_cap = false;   ///< false = keep the current capacitor.
  std::uint32_t select_cap = 0;
  double alpha = 1.0;
  bool intra_mode = false;       ///< δ-rule outcome (false = inter/LSA).
  std::uint32_t n_tasks = 0;     ///< 0 with te_mask 0 = "all tasks".
  std::uint64_t te_mask = 0;     ///< Bit n set = task n in the te set.
  std::uint64_t controller_key = 0;  ///< Echo of the serving controller.
};

/// Typed refusal.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Reload outcome.
struct ReloadReply {
  bool ok = false;
  std::uint64_t controller_key = 0;
  std::string message;
};

/// Header-level decode verdict. kNeedMore is not an error: the reader has
/// not accumulated a full header/payload yet.
enum class FrameVerdict {
  kOk,
  kNeedMore,
  kBadMagic,
  kBadVersion,
  kBadLength,   ///< Length field exceeds kMaxPayload.
  kBadHash,     ///< Payload does not match the header hash.
  kBadType,     ///< Unknown FrameType.
  kBadPayload,  ///< Frame sound, payload grammar violated.
};

/// Human-readable verdict name ("bad_magic", ...), for error replies/logs.
const char* verdict_name(FrameVerdict verdict) noexcept;

/// Parsed header of one frame.
struct FrameHeader {
  std::uint16_t version = 0;
  FrameType type = FrameType::kQuery;
  std::uint32_t payload_len = 0;
  std::uint64_t payload_hash = 0;
};

/// Offset basis of the frame's payload hash. This is a frozen wire format,
/// NOT the standard FNV-1a 64-bit basis (14695981039346656037): the value
/// shipped with its last digit missing, and every v1/v2 encoder and decoder
/// hashes with it, so "correcting" it would break the wire.
inline constexpr std::uint64_t kPayloadHashBasis = 1469598103934665603ull;

/// FNV-1a (from kPayloadHashBasis) over the payload bytes — the header's
/// integrity field.
std::uint64_t payload_fnv1a(const std::uint8_t* data, std::size_t size) noexcept;

/// Validates the fixed header at `data`. Returns kNeedMore when fewer than
/// kFrameHeaderSize bytes are available; on kOk fills `*out`.
FrameVerdict decode_header(const std::uint8_t* data, std::size_t size,
                           FrameHeader* out) noexcept;

/// Checks the payload hash of a decoded header against the payload bytes.
FrameVerdict verify_payload(const FrameHeader& header, const std::uint8_t* data,
                            std::size_t size) noexcept;

/// Encodes header + payload into one wire buffer. `version` is the header
/// version to stamp (queries carrying a trace extension must stamp
/// kProtocolVersionTraced; everything else defaults to the v1 baseline).
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload,
                                       std::uint16_t version = kProtocolVersion);

// ---- payload codecs -------------------------------------------------------
// Encoders are total; decoders are strict (full consumption, bounds checked)
// and return kOk or kBadPayload — never throw, never over-read.

/// Trace-aware: appends the 16-byte trace extension iff request.trace is
/// active; an untraced request produces the exact v1 payload bytes.
std::vector<std::uint8_t> encode_query(const QueryRequest& request);
/// `version` gates the extension grammar: v1 payloads must end at the v1
/// fields, v2 payloads must carry exactly the 16-byte extension — either
/// way a mismatch is kBadPayload, never an over-read.
FrameVerdict decode_query(const std::uint8_t* data, std::size_t size,
                          std::uint16_t version, QueryRequest* out) noexcept;

std::vector<std::uint8_t> encode_decision(const DecisionReply& reply);
FrameVerdict decode_decision(const std::uint8_t* data, std::size_t size,
                             DecisionReply* out) noexcept;

std::vector<std::uint8_t> encode_error(const ErrorReply& reply);
FrameVerdict decode_error(const std::uint8_t* data, std::size_t size,
                          ErrorReply* out) noexcept;

std::vector<std::uint8_t> encode_reload(std::uint64_t controller_key);
FrameVerdict decode_reload(const std::uint8_t* data, std::size_t size,
                           std::uint64_t* out) noexcept;

std::vector<std::uint8_t> encode_reload_ack(const ReloadReply& reply);
FrameVerdict decode_reload_ack(const std::uint8_t* data, std::size_t size,
                               ReloadReply* out) noexcept;

}  // namespace solsched::serve
