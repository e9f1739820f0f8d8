#include "serve/protocol.hpp"

#include <cstring>

#include "util/byte_format.hpp"

namespace solsched::serve {
namespace {

// Little-endian byte-level writers. memcpy-free on purpose: explicit shifts
// give identical bytes on any host endianness.
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

// Bounds-checked sequential reader. Every take_* returns false once the
// cursor would pass `size`; callers propagate that as kBadPayload.
struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool take_u8(std::uint8_t* out) noexcept {
    if (size - pos < 1) return false;
    *out = data[pos++];
    return true;
  }
  bool take_u16(std::uint16_t* out) noexcept {
    if (size - pos < 2) return false;
    *out = static_cast<std::uint16_t>(data[pos] |
                                      (std::uint16_t{data[pos + 1]} << 8));
    pos += 2;
    return true;
  }
  bool take_u32(std::uint32_t* out) noexcept {
    if (size - pos < 4) return false;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data[pos + i]} << (8 * i);
    pos += 4;
    *out = v;
    return true;
  }
  bool take_u64(std::uint64_t* out) noexcept {
    if (size - pos < 8) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data[pos + i]} << (8 * i);
    pos += 8;
    *out = v;
    return true;
  }
  bool take_f64(double* out) noexcept {
    std::uint64_t bits = 0;
    if (!take_u64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }
  bool done() const noexcept { return pos == size; }
};

// A counted vector of doubles: u32 count (bounded) then count f64s.
bool take_f64_vec(Cursor& cur, std::uint32_t max_count,
                  std::vector<double>* out) noexcept {
  std::uint32_t count = 0;
  if (!cur.take_u32(&count) || count > max_count) return false;
  if (cur.size - cur.pos < std::size_t{count} * 8) return false;
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    double v = 0.0;
    cur.take_f64(&v);
    out->push_back(v);
  }
  return true;
}

void put_f64_vec(std::vector<std::uint8_t>& out,
                 const std::vector<double>& values) {
  put_u32(out, static_cast<std::uint32_t>(values.size()));
  for (double v : values) put_f64(out, v);
}

// A counted string: u32 length (bounded by kMaxErrorText) then raw bytes.
bool take_string(Cursor& cur, std::string* out) noexcept {
  std::uint32_t len = 0;
  if (!cur.take_u32(&len) || len > kMaxErrorText) return false;
  if (cur.size - cur.pos < len) return false;
  out->assign(reinterpret_cast<const char*>(cur.data + cur.pos), len);
  cur.pos += len;
  return true;
}

void put_string(std::vector<std::uint8_t>& out, const std::string& text) {
  std::string bounded = text.substr(0, kMaxErrorText);
  put_u32(out, static_cast<std::uint32_t>(bounded.size()));
  out.insert(out.end(), bounded.begin(), bounded.end());
}

bool known_frame_type(std::uint16_t raw) noexcept {
  return raw >= static_cast<std::uint16_t>(FrameType::kQuery) &&
         raw <= static_cast<std::uint16_t>(FrameType::kShutdown);
}

}  // namespace

const char* verdict_name(FrameVerdict verdict) noexcept {
  switch (verdict) {
    case FrameVerdict::kOk: return "ok";
    case FrameVerdict::kNeedMore: return "need_more";
    case FrameVerdict::kBadMagic: return "bad_magic";
    case FrameVerdict::kBadVersion: return "bad_version";
    case FrameVerdict::kBadLength: return "bad_length";
    case FrameVerdict::kBadHash: return "bad_hash";
    case FrameVerdict::kBadType: return "bad_type";
    case FrameVerdict::kBadPayload: return "bad_payload";
  }
  return "unknown";
}

std::uint64_t derive_trace_id(std::uint64_t seed, std::uint64_t n) noexcept {
  // splitmix64: every (seed, n) pair lands on a well-mixed 64-bit id.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (n + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 means "untraced" on the wire.
}

std::uint64_t payload_fnv1a(const std::uint8_t* data,
                            std::size_t size) noexcept {
  return util::fnv1a(data, size, kPayloadHashBasis);
}

FrameVerdict decode_header(const std::uint8_t* data, std::size_t size,
                           FrameHeader* out) noexcept {
  if (size < kFrameHeaderSize) return FrameVerdict::kNeedMore;
  Cursor cur{data, kFrameHeaderSize};
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t type = 0;
  std::uint32_t len = 0;
  std::uint64_t hash = 0;
  cur.take_u32(&magic);
  cur.take_u16(&version);
  cur.take_u16(&type);
  cur.take_u32(&len);
  cur.take_u64(&hash);
  if (magic != kFrameMagic) return FrameVerdict::kBadMagic;
  if (version < kProtocolVersion || version > kMaxProtocolVersion)
    return FrameVerdict::kBadVersion;
  if (len > kMaxPayload) return FrameVerdict::kBadLength;
  if (!known_frame_type(type)) return FrameVerdict::kBadType;
  out->version = version;
  out->type = static_cast<FrameType>(type);
  out->payload_len = len;
  out->payload_hash = hash;
  return FrameVerdict::kOk;
}

FrameVerdict verify_payload(const FrameHeader& header,
                            const std::uint8_t* data,
                            std::size_t size) noexcept {
  if (size < header.payload_len) return FrameVerdict::kNeedMore;
  if (payload_fnv1a(data, header.payload_len) != header.payload_hash)
    return FrameVerdict::kBadHash;
  return FrameVerdict::kOk;
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload,
                                       std::uint16_t version) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(out, kFrameMagic);
  put_u16(out, version);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, payload_fnv1a(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encode_query(const QueryRequest& request) {
  std::vector<std::uint8_t> out;
  put_u64(out, request.controller_key);
  put_u32(out, request.day);
  put_u32(out, request.period);
  put_u32(out, request.selected_cap);
  put_u64(out, request.dead_mask);
  put_f64(out, request.accumulated_dmr);
  put_u32(out, request.deadline_ms);
  put_f64_vec(out, request.last_period_solar_w);
  put_f64_vec(out, request.cap_voltages);
  if (request.trace.active()) {
    put_u64(out, request.trace.trace_id);
    put_u64(out, request.trace.parent_span_id);
  }
  return out;
}

FrameVerdict decode_query(const std::uint8_t* data, std::size_t size,
                          std::uint16_t version, QueryRequest* out) noexcept {
  Cursor cur{data, size};
  QueryRequest q;
  if (!cur.take_u64(&q.controller_key) || !cur.take_u32(&q.day) ||
      !cur.take_u32(&q.period) || !cur.take_u32(&q.selected_cap) ||
      !cur.take_u64(&q.dead_mask) || !cur.take_f64(&q.accumulated_dmr) ||
      !cur.take_u32(&q.deadline_ms) ||
      !take_f64_vec(cur, kMaxSolarSlots, &q.last_period_solar_w) ||
      !take_f64_vec(cur, kMaxCaps, &q.cap_voltages))
    return FrameVerdict::kBadPayload;
  // The trace extension is version-gated: a v2 query must carry exactly
  // the two extension words (a truncated extension is rejected, not
  // zero-filled) and a v1 query must not carry them — full-consumption
  // strictness in both directions.
  if (version >= kProtocolVersionTraced) {
    if (!cur.take_u64(&q.trace.trace_id) ||
        !cur.take_u64(&q.trace.parent_span_id))
      return FrameVerdict::kBadPayload;
    // Zero means "untraced", and untraced queries must travel as v1 — a
    // v2 frame with a zero id is malformed, not quietly accepted.
    if (q.trace.trace_id == 0) return FrameVerdict::kBadPayload;
  }
  if (!cur.done()) return FrameVerdict::kBadPayload;
  *out = std::move(q);
  return FrameVerdict::kOk;
}

std::vector<std::uint8_t> encode_decision(const DecisionReply& reply) {
  std::vector<std::uint8_t> out;
  put_u16(out, reply.fallback_code);
  put_u8(out, reply.used_fallback ? 1 : 0);
  put_u8(out, reply.has_select_cap ? 1 : 0);
  put_u32(out, reply.select_cap);
  put_f64(out, reply.alpha);
  put_u8(out, reply.intra_mode ? 1 : 0);
  put_u32(out, reply.n_tasks);
  put_u64(out, reply.te_mask);
  put_u64(out, reply.controller_key);
  return out;
}

FrameVerdict decode_decision(const std::uint8_t* data, std::size_t size,
                             DecisionReply* out) noexcept {
  Cursor cur{data, size};
  DecisionReply r;
  std::uint8_t used = 0, has_cap = 0, intra = 0;
  if (!cur.take_u16(&r.fallback_code) || !cur.take_u8(&used) ||
      !cur.take_u8(&has_cap) || !cur.take_u32(&r.select_cap) ||
      !cur.take_f64(&r.alpha) || !cur.take_u8(&intra) ||
      !cur.take_u32(&r.n_tasks) || !cur.take_u64(&r.te_mask) ||
      !cur.take_u64(&r.controller_key) || !cur.done())
    return FrameVerdict::kBadPayload;
  if (used > 1 || has_cap > 1 || intra > 1 || r.n_tasks > kMaxTasks)
    return FrameVerdict::kBadPayload;
  r.used_fallback = used == 1;
  r.has_select_cap = has_cap == 1;
  r.intra_mode = intra == 1;
  *out = r;
  return FrameVerdict::kOk;
}

std::vector<std::uint8_t> encode_error(const ErrorReply& reply) {
  std::vector<std::uint8_t> out;
  put_u16(out, static_cast<std::uint16_t>(reply.code));
  put_string(out, reply.message);
  return out;
}

FrameVerdict decode_error(const std::uint8_t* data, std::size_t size,
                          ErrorReply* out) noexcept {
  Cursor cur{data, size};
  std::uint16_t code = 0;
  ErrorReply r;
  if (!cur.take_u16(&code) || !take_string(cur, &r.message) || !cur.done())
    return FrameVerdict::kBadPayload;
  if (code < static_cast<std::uint16_t>(ErrorCode::kMalformed) ||
      code > static_cast<std::uint16_t>(ErrorCode::kInternal))
    return FrameVerdict::kBadPayload;
  r.code = static_cast<ErrorCode>(code);
  *out = std::move(r);
  return FrameVerdict::kOk;
}

std::vector<std::uint8_t> encode_reload(std::uint64_t controller_key) {
  std::vector<std::uint8_t> out;
  put_u64(out, controller_key);
  return out;
}

FrameVerdict decode_reload(const std::uint8_t* data, std::size_t size,
                           std::uint64_t* out) noexcept {
  Cursor cur{data, size};
  std::uint64_t key = 0;
  if (!cur.take_u64(&key) || !cur.done()) return FrameVerdict::kBadPayload;
  *out = key;
  return FrameVerdict::kOk;
}

std::vector<std::uint8_t> encode_reload_ack(const ReloadReply& reply) {
  std::vector<std::uint8_t> out;
  put_u8(out, reply.ok ? 1 : 0);
  put_u64(out, reply.controller_key);
  put_string(out, reply.message);
  return out;
}

FrameVerdict decode_reload_ack(const std::uint8_t* data, std::size_t size,
                               ReloadReply* out) noexcept {
  Cursor cur{data, size};
  std::uint8_t ok = 0;
  ReloadReply r;
  if (!cur.take_u8(&ok) || ok > 1 || !cur.take_u64(&r.controller_key) ||
      !take_string(cur, &r.message) || !cur.done())
    return FrameVerdict::kBadPayload;
  r.ok = ok == 1;
  *out = std::move(r);
  return FrameVerdict::kOk;
}

}  // namespace solsched::serve
