#include "src/durable/codec.h"

#include <bit>
#include <cstring>

namespace qhorn {

// ---------------------------------------------------------------------------
// Primitives

void Encoder::PutU32(uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out_->append(buf, 4);
}

void Encoder::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void Encoder::PutDouble(double v) {
  PutU64(std::bit_cast<uint64_t>(v));
}

void Encoder::PutBytes(std::string_view bytes) {
  PutU32(static_cast<uint32_t>(bytes.size()));
  out_->append(bytes);
}

bool Decoder::GetU8(uint8_t* v) {
  if (data_.empty()) return false;
  *v = static_cast<uint8_t>(data_[0]);
  data_.remove_prefix(1);
  return true;
}

bool Decoder::GetU32(uint32_t* v) {
  if (data_.size() < 4) return false;
  *v = static_cast<uint32_t>(static_cast<uint8_t>(data_[0])) |
       static_cast<uint32_t>(static_cast<uint8_t>(data_[1])) << 8 |
       static_cast<uint32_t>(static_cast<uint8_t>(data_[2])) << 16 |
       static_cast<uint32_t>(static_cast<uint8_t>(data_[3])) << 24;
  data_.remove_prefix(4);
  return true;
}

bool Decoder::GetU64(uint64_t* v) {
  uint32_t lo, hi;
  if (!GetU32(&lo) || !GetU32(&hi)) return false;
  *v = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
  return true;
}

bool Decoder::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool Decoder::GetDouble(double* v) {
  uint64_t bits;
  if (!GetU64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool Decoder::GetBytes(std::string* out) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  if (data_.size() < len) return false;
  out->assign(data_.data(), len);
  data_.remove_prefix(len);
  return true;
}

// ---------------------------------------------------------------------------
// Query

void EncodeQuery(const Query& query, std::string* out) {
  Encoder e(out);
  e.PutU32(static_cast<uint32_t>(query.n()));
  e.PutU32(static_cast<uint32_t>(query.universal().size()));
  for (const UniversalHorn& u : query.universal()) {
    e.PutU64(u.body);
    e.PutU32(static_cast<uint32_t>(u.head));
  }
  e.PutU32(static_cast<uint32_t>(query.existential().size()));
  for (const ExistentialConj& x : query.existential()) {
    e.PutU64(x.vars);
  }
}

bool DecodeQuery(Decoder& in, Query* out) {
  uint32_t n, n_universal, n_existential;
  if (!in.GetU32(&n)) return false;
  // Schemas are ≤ 64 variables (VarSet is a u64 bitmask); a larger n is
  // not a valid encoding, just bytes that happened to frame-check.
  if (n > 64) return false;
  Query q(static_cast<int>(n));
  if (!in.GetU32(&n_universal)) return false;
  for (uint32_t i = 0; i < n_universal; ++i) {
    uint64_t body;
    uint32_t head;
    if (!in.GetU64(&body) || !in.GetU32(&head)) return false;
    if (head >= 64) return false;
    q.AddUniversal(body, static_cast<int>(head));
  }
  if (!in.GetU32(&n_existential)) return false;
  for (uint32_t i = 0; i < n_existential; ++i) {
    uint64_t vars;
    if (!in.GetU64(&vars)) return false;
    if (vars == 0) return false;  // AddExistential aborts on empty sets
    q.AddExistential(vars);
  }
  *out = std::move(q);
  return true;
}

// ---------------------------------------------------------------------------
// SessionSpec

void EncodeSessionSpec(const SessionSpec& spec, std::string* out) {
  Encoder e(out);
  e.PutU8(static_cast<uint8_t>(spec.query_class));
  e.PutU32(static_cast<uint32_t>(spec.n));
  EncodeQuery(spec.target, out);
  EncodeQuery(spec.mutant, out);
  e.PutDouble(spec.flip_rate);
  e.PutU64(spec.noise_seed);
  e.PutU32(static_cast<uint32_t>(spec.jobs.size()));
  for (WorkloadJob j : spec.jobs) {
    e.PutU8(static_cast<uint8_t>(j));
  }
  e.PutU8(spec.abandon ? 1 : 0);
  e.PutU32(static_cast<uint32_t>(spec.abandon_after_rounds));
}

bool DecodeSessionSpec(Decoder& in, SessionSpec* out) {
  SessionSpec spec;
  uint8_t query_class, abandon;
  uint32_t n, n_jobs, abandon_after;
  if (!in.GetU8(&query_class)) return false;
  if (query_class > static_cast<uint8_t>(QueryClass::kRpUniversal)) {
    return false;
  }
  spec.query_class = static_cast<QueryClass>(query_class);
  if (!in.GetU32(&n) || n > 64) return false;
  spec.n = static_cast<int>(n);
  if (!DecodeQuery(in, &spec.target)) return false;
  if (!DecodeQuery(in, &spec.mutant)) return false;
  if (!in.GetDouble(&spec.flip_rate)) return false;
  if (!in.GetU64(&spec.noise_seed)) return false;
  if (!in.GetU32(&n_jobs)) return false;
  spec.jobs.reserve(n_jobs);
  for (uint32_t i = 0; i < n_jobs; ++i) {
    uint8_t j;
    if (!in.GetU8(&j)) return false;
    if (j > static_cast<uint8_t>(WorkloadJob::kRevise)) return false;
    spec.jobs.push_back(static_cast<WorkloadJob>(j));
  }
  if (!in.GetU8(&abandon) || abandon > 1) return false;
  spec.abandon = abandon != 0;
  if (!in.GetU32(&abandon_after)) return false;
  spec.abandon_after_rounds = static_cast<int>(abandon_after);
  // Well-framed but unrunnable (n = 0, or a job's query of the wrong
  // arity): reopening it would abort, so it is not a valid encoding.
  if (!IsValidSessionSpec(spec)) return false;
  *out = std::move(spec);
  return true;
}

// ---------------------------------------------------------------------------
// WorkloadSpec

void EncodeWorkloadSpec(const WorkloadSpec& spec, std::string* out) {
  Encoder e(out);
  e.PutU64(spec.seed);
  e.PutU32(static_cast<uint32_t>(spec.sessions));
  e.PutU32(static_cast<uint32_t>(spec.lanes));
  e.PutU32(static_cast<uint32_t>(spec.n_min));
  e.PutU32(static_cast<uint32_t>(spec.n_max));
  e.PutDouble(spec.qhorn1_weight);
  e.PutDouble(spec.rp_existential_weight);
  e.PutDouble(spec.rp_universal_weight);
  e.PutDouble(spec.noisy_fraction);
  e.PutDouble(spec.flip_min);
  e.PutDouble(spec.flip_max);
  e.PutDouble(spec.abandon_fraction);
  e.PutDouble(spec.answer_fraction);
  e.PutDouble(spec.malformed_rate);
  e.PutDouble(spec.duplicate_rate);
  e.PutDouble(spec.latency_alpha);
  e.PutU32(static_cast<uint32_t>(spec.latency_cap_ticks));
}

bool DecodeWorkloadSpec(Decoder& in, WorkloadSpec* out) {
  WorkloadSpec spec;
  uint32_t sessions, lanes, n_min, n_max, latency_cap;
  if (!in.GetU64(&spec.seed)) return false;
  if (!in.GetU32(&sessions) || !in.GetU32(&lanes) || !in.GetU32(&n_min) ||
      !in.GetU32(&n_max)) {
    return false;
  }
  spec.sessions = static_cast<int>(sessions);
  spec.lanes = static_cast<int>(lanes);
  spec.n_min = static_cast<int>(n_min);
  spec.n_max = static_cast<int>(n_max);
  if (!in.GetDouble(&spec.qhorn1_weight) ||
      !in.GetDouble(&spec.rp_existential_weight) ||
      !in.GetDouble(&spec.rp_universal_weight) ||
      !in.GetDouble(&spec.noisy_fraction) || !in.GetDouble(&spec.flip_min) ||
      !in.GetDouble(&spec.flip_max) || !in.GetDouble(&spec.abandon_fraction) ||
      !in.GetDouble(&spec.answer_fraction) ||
      !in.GetDouble(&spec.malformed_rate) ||
      !in.GetDouble(&spec.duplicate_rate) ||
      !in.GetDouble(&spec.latency_alpha)) {
    return false;
  }
  if (!in.GetU32(&latency_cap)) return false;
  spec.latency_cap_ticks = static_cast<int>(latency_cap);
  *out = spec;
  return true;
}

}  // namespace qhorn
