// Compiled query evaluation (the engine behind every membership answer).
//
// Query::Evaluate re-scans the object once per universal Horn expression,
// once per guarantee clause and once per existential conjunction — O(k·|S|)
// passes through std::vector<UniversalHorn> with per-expression VarBit
// arithmetic. The learners and verifiers ask thousands of membership
// questions per session (§2.1.2, §3), so that cost sits on the interactive
// path. CompiledQuery flattens a query once into cache-friendly
// structure-of-arrays mask vectors and answers each question with tight
// scans over the object's contiguous tuple array:
//
//   * Universal Horn expressions are R2-pruned (per head, only the minimal
//     antichain of bodies is kept — a tuple violating a dominated
//     expression always violates a dominant one) and lowered to mask pairs:
//     tuple t violates ∀B→h  ⟺  (t & (B ∪ {h})) == B. Expressions are
//     sorted by body popcount so the likeliest violations are probed first.
//   * Guarantee clauses and existential conjunctions are pooled, R3-closed
//     under the query's Horn expressions, and R1-pruned to the maximal
//     antichain — one "need" mask per dominant conjunction, sorted by
//     descending popcount (the least-likely-satisfied need is probed
//     first). A closed need is sound to check *before* the violation scan:
//     if ∃closure(C) fails on an object, then either ∃C already fails or
//     some tuple violates a Horn expression used by the closure — the
//     object is a non-answer either way.
//
// Evaluation is two short phases over the tuple array. The needs phase
// first tests the largest tuple against the union of all need masks (every
// learner question contains the all-true tuple, which settles all needs in
// one comparison) and otherwise certifies each need with a branchless scan;
// the violation phase probes each mask pair the same way. Both phases
// short-circuit the moment the verdict is known. The per-mask scans
// vectorize (AVX-512/AVX2 kernels when the build enables them — see
// QHORN_SIMD in the top-level CMakeLists) and allocate nothing.
//
// CompiledQuery::Evaluate agrees with Query::Evaluate on every object —
// exhaustively tested for all role-preserving queries and all objects at
// n ≤ 3 and differentially at n ∈ {16, 64} (tests/compiled_query_test.cc).

#ifndef QHORN_CORE_COMPILED_QUERY_H_
#define QHORN_CORE_COMPILED_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/bool/tuple.h"
#include "src/bool/tuple_set.h"
#include "src/core/query.h"
#include "src/util/bit_span.h"

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace qhorn {

namespace internal {

/// Portable reference kernel (also the differential-test oracle for the
/// SIMD paths). Branchless accumulation so the common certify-absent scan
/// has no unpredictable branches.
inline bool AnyTupleMatchesScalar(const Tuple* ts, size_t m, uint64_t guard,
                                  uint64_t want) {
  uint64_t hit = 0;
  for (size_t j = 0; j < m; ++j) {
    hit |= static_cast<uint64_t>((ts[j] & guard) == want);
  }
  return hit != 0;
}

/// True iff some tuple of ts[0..m) satisfies (t & guard) == want. The one
/// kernel of the engine: with guard = need, want = need it decides an
/// existential need; with guard = body ∪ {head}, want = body it detects a
/// universal Horn violation.
inline bool AnyTupleMatches(const Tuple* ts, size_t m, uint64_t guard,
                            uint64_t want) {
#if defined(__AVX512F__)
  const __m512i vg = _mm512_set1_epi64(static_cast<long long>(guard));
  const __m512i vw = _mm512_set1_epi64(static_cast<long long>(want));
  __mmask8 hit = 0;
  size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    __m512i t = _mm512_loadu_si512(ts + j);
    hit |= _mm512_cmpeq_epi64_mask(_mm512_and_si512(t, vg), vw);
  }
  if (hit) return true;
  for (; j < m; ++j) {
    if ((ts[j] & guard) == want) return true;
  }
  return false;
#elif defined(__AVX2__)
  const __m256i vg = _mm256_set1_epi64x(static_cast<long long>(guard));
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(want));
  __m256i acc = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ts + j));
    acc = _mm256_or_si256(acc,
                          _mm256_cmpeq_epi64(_mm256_and_si256(t, vg), vw));
  }
  if (!_mm256_testz_si256(acc, acc)) return true;
  for (; j < m; ++j) {
    if ((ts[j] & guard) == want) return true;
  }
  return false;
#else
  return AnyTupleMatchesScalar(ts, m, guard, want);
#endif
}

}  // namespace internal

/// A query flattened for evaluation. Compile once (construction walks the
/// query and runs the R1/R2/R3 pruning), evaluate many times.
class CompiledQuery {
 public:
  /// Name of the per-mask scan kernel this translation unit was built with.
  static constexpr const char* SimdBackend() {
#if defined(__AVX512F__)
    return "avx512";
#elif defined(__AVX2__)
    return "avx2";
#else
    return "scalar";
#endif
  }

  CompiledQuery() = default;

  /// Compiles `query` under `opts` (the guarantee-clause mode is baked into
  /// the compiled form: with require_guarantees unset, guarantee clauses
  /// contribute no needs).
  explicit CompiledQuery(const Query& query,
                         const EvalOptions& opts = EvalOptions());

  int n() const { return n_; }
  const EvalOptions& options() const { return opts_; }

  /// Compiled expression counts, after pruning (for tests and stats).
  size_t num_violation_masks() const { return viol_guard_.size(); }
  size_t num_need_masks() const { return need_.size(); }

  /// Probe-order cost model: true when evaluation scans the violation
  /// masks before the needs phase. Chosen at compile time from the pruned
  /// mask counts — see the constructor.
  bool violations_first() const { return violations_first_; }

  /// The membership map (Def. 2.4): true iff `object` is an answer.
  /// Extensionally equal to Query::Evaluate(object, options()).
  bool Evaluate(const TupleSet& object) const {
    return EvaluateTuples(object.tuples().data(), object.tuples().size());
  }

  /// Inert (rounds are never split); kept because e2ebench/ still names it.
  static constexpr size_t kParallelRoundCutover = 512;

  /// Evaluates a span of objects — the kernel behind every batched oracle
  /// round (QueryOracle::IsAnswerBatch and the miss-only forwarding of
  /// QuestionStore both land here). `verdicts.size()` must equal
  /// `objects.size()`; verdict i answers object i.
  void EvaluateAll(std::span<const TupleSet> objects, BitSpan verdicts) const;

  /// Convenience variants over owned vector<bool> storage (non-oracle
  /// callers: brute-force sweeps, construction self-tests).
  std::vector<bool> EvaluateAll(std::span<const TupleSet> objects) const;
  void EvaluateAll(std::span<const TupleSet> objects,
                   std::vector<bool>* verdicts) const;

  /// True iff `t` violates some universal Horn expression (body true, head
  /// false). Extensionally equal to Query::ViolatesUniversal.
  bool ViolatesUniversal(Tuple t) const {
    const uint64_t* guard = viol_guard_.data();
    const uint64_t* body = viol_body_.data();
    size_t count = viol_guard_.size();
    for (size_t i = 0; i < count; ++i) {
      if ((t & guard[i]) == body[i]) return true;
    }
    return false;
  }

  /// Evaluate over a raw sorted tuple array (the TupleSet invariant: the
  /// numerically largest tuple is last). Both phases are pure predicates
  /// over the same immutable object, so their order is a pure cost choice;
  /// `violations_first_` picks it per compiled query (see the constructor).
  bool EvaluateTuples(const Tuple* ts, size_t m) const {
    if (m == 0) return need_.empty();
    if (violations_first_) {
      return NoViolation(ts, m) && NeedsMet(ts, m);
    }
    return NeedsMet(ts, m) && NoViolation(ts, m);
  }

 private:
  /// Needs phase: every compiled need mask is met by some tuple.
  bool NeedsMet(const Tuple* ts, size_t m) const {
    // A question containing the all-true tuple (every learner probe does)
    // settles all needs in one comparison against the largest tuple.
    if (need_.empty() || (ts[m - 1] & need_union_) == need_union_) {
      return true;
    }
    // Union fast-reject: a need can only be met by a single tuple, so if
    // even the union of all tuples misses a variable of some need the
    // object is a non-answer. One O(m) pass spares the per-need scans on
    // the learners' frequent deliberately-deficient probes.
    Tuple all_vars = 0;
    for (size_t j = 0; j < m; ++j) all_vars |= ts[j];
    if ((all_vars & need_union_) != need_union_) return false;
    for (uint64_t nd : need_) {
      if (!internal::AnyTupleMatches(ts, m, nd, nd)) return false;
    }
    return true;
  }

  /// Violation phase: no tuple violates a compiled universal expression.
  bool NoViolation(const Tuple* ts, size_t m) const {
    const uint64_t* guard = viol_guard_.data();
    const uint64_t* body = viol_body_.data();
    size_t count = viol_guard_.size();
    for (size_t i = 0; i < count; ++i) {
      if (internal::AnyTupleMatches(ts, m, guard[i], body[i])) return false;
    }
    return true;
  }

  int n_ = 0;
  EvalOptions opts_;
  bool violations_first_ = false;
  // Violation masks, parallel arrays: tuple t violates expression i iff
  // (t & viol_guard_[i]) == viol_body_[i]. R2-pruned, body-popcount order.
  std::vector<uint64_t> viol_guard_;
  std::vector<uint64_t> viol_body_;
  // Need masks: R3-closed maximal antichain of existential conjunctions
  // (and guarantee clauses when required), descending popcount.
  std::vector<uint64_t> need_;
  uint64_t need_union_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_CORE_COMPILED_QUERY_H_
