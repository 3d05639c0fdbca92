#include "src/core/enumerate.h"

#include <map>
#include <unordered_set>
#include <utility>

#include "src/core/normalize.h"
#include "src/util/check.h"
#include "src/util/checked_mutex.h"

namespace qhorn {

namespace {

// Depth-first construction of antichains over the list of subsets: at each
// step either skip subsets[i] or take it when it is incomparable with every
// chosen set.
void AntichainDfs(const std::vector<VarSet>& subsets, size_t i,
                  std::vector<VarSet>* chosen,
                  std::vector<std::vector<VarSet>>* out) {
  if (i == subsets.size()) {
    out->push_back(*chosen);
    return;
  }
  AntichainDfs(subsets, i + 1, chosen, out);
  for (VarSet c : *chosen) {
    if (IsSubset(c, subsets[i]) || IsSubset(subsets[i], c)) return;
  }
  chosen->push_back(subsets[i]);
  AntichainDfs(subsets, i + 1, chosen, out);
  chosen->pop_back();
}

void PartitionDfs(const std::vector<int>& vars, size_t i,
                  std::vector<VarSet>* parts,
                  std::vector<std::vector<VarSet>>* out) {
  if (i == vars.size()) {
    out->push_back(*parts);
    return;
  }
  VarSet bit = VarBit(vars[i]);
  // Index-based: recursion pushes/pops parts, which may reallocate the
  // vector and would invalidate a range-for reference.
  for (size_t p = 0; p < parts->size(); ++p) {
    (*parts)[p] |= bit;
    PartitionDfs(vars, i + 1, parts, out);
    (*parts)[p] &= ~bit;
  }
  parts->push_back(bit);
  PartitionDfs(vars, i + 1, parts, out);
  parts->pop_back();
}

}  // namespace

namespace {

// Antichain families depend only on the universe's *width*: the families
// over an arbitrary universe are the families over {0..width-1} with bit j
// remapped to the universe's j-th variable. Enumerating once per width and
// remapping makes repeated calls (EnumerateRolePreserving alone issues one
// per head set, and the exhaustive test suites re-enumerate whole worlds)
// effectively free.
const std::vector<std::vector<VarSet>>& CompactAntichainsOfWidth(int width) {
  // Highest rank in the tree (kMemo): a leaf-of-leaves reachable from any
  // layer — learner jobs hit it while their router shard is held.
  static Mutex mutex("antichain-memo", LockRank::kMemo);
  // Entries are inserted once and never mutated, so the returned reference
  // stays valid (and safely readable) after the lock is dropped.
  static std::map<int, std::vector<std::vector<VarSet>>> cache
      QHORN_GUARDED_BY(mutex);
  MutexLock lock(&mutex);
  auto it = cache.find(width);
  if (it != cache.end()) return it->second;

  std::vector<VarSet> subsets;
  for (uint64_t bits = 0; bits < (uint64_t{1} << width); ++bits) {
    subsets.push_back(bits);
  }
  std::vector<std::vector<VarSet>> out;
  std::vector<VarSet> chosen;
  AntichainDfs(subsets, 0, &chosen, &out);
  return cache.emplace(width, std::move(out)).first->second;
}

// Spreads the low `width` bits of `compact` onto the variables of
// `universe` (bit j → j-th lowest universe variable).
VarSet SpreadOnto(VarSet compact, VarSet universe) {
  VarSet spread = 0;
  while (compact != 0) {
    VarSet low_universe = universe & (~universe + 1);
    if (compact & 1) spread |= low_universe;
    universe &= universe - 1;
    compact >>= 1;
  }
  return spread;
}

}  // namespace

std::vector<std::vector<VarSet>> AntichainsOf(VarSet universe) {
  int width = Popcount(universe);
  QHORN_CHECK_MSG(width <= 5, "antichain enumeration supported to width 5");
  const std::vector<std::vector<VarSet>>& compact =
      CompactAntichainsOfWidth(width);
  if (universe == AllTrue(width)) return compact;  // identity remap
  std::vector<std::vector<VarSet>> out;
  out.reserve(compact.size());
  for (const std::vector<VarSet>& family : compact) {
    std::vector<VarSet> mapped;
    mapped.reserve(family.size());
    for (VarSet s : family) mapped.push_back(SpreadOnto(s, universe));
    out.push_back(std::move(mapped));
  }
  return out;
}

std::vector<std::vector<VarSet>> SetPartitions(int n) {
  QHORN_CHECK(n >= 0);
  std::vector<int> vars(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) vars[static_cast<size_t>(i)] = i;
  std::vector<std::vector<VarSet>> out;
  std::vector<VarSet> parts;
  PartitionDfs(vars, 0, &parts, &out);
  return out;
}

std::vector<Query> EnumerateRolePreserving(int n) {
  QHORN_CHECK_MSG(n >= 1 && n <= 4, "exhaustive enumeration is for n ≤ 4");
  VarSet all = AllTrue(n);

  // Existential families: antichains of non-empty subsets of all variables.
  std::vector<std::vector<VarSet>> exist_families;
  for (const auto& family : AntichainsOf(all)) {
    bool has_empty = false;
    for (VarSet s : family) has_empty |= (s == 0);
    if (!has_empty) exist_families.push_back(family);
  }

  // Dedup on the hashed canonical form itself (cached word hash, the TupleSet
  // idiom) — the ToString() keys this replaces were the canonical-form
  // bottleneck: one string render plus a lexicographic map probe per
  // candidate. Results keep the deterministic first-encounter order of the
  // (deterministic) enumeration.
  std::unordered_set<CanonicalForm, CanonicalFormHash> seen;
  std::vector<Query> result;
  auto consider = [&](const Query& q) {
    if (q.MentionedVars() != all) return;
    auto [it, inserted] = seen.insert(Canonicalize(q));
    if (inserted) result.push_back(ToQuery(*it));
  };

  for (VarSet heads = 0; heads <= all; ++heads) {
    if (!IsSubset(heads, all)) continue;
    VarSet non_heads = all & ~heads;
    std::vector<int> head_list = VarsOf(heads);

    // Per-head body antichains (non-empty families; ∅ body = bodyless).
    std::vector<std::vector<VarSet>> body_options;
    for (const auto& family : AntichainsOf(non_heads)) {
      if (!family.empty()) body_options.push_back(family);
    }
    if (!head_list.empty() && body_options.empty()) continue;

    // Cartesian product of body antichains across heads.
    std::vector<size_t> idx(head_list.size(), 0);
    for (;;) {
      for (const auto& exist : exist_families) {
        Query q(n);
        for (size_t h = 0; h < head_list.size(); ++h) {
          for (VarSet body : body_options[idx[h]]) {
            q.AddUniversal(body, head_list[h]);
          }
        }
        for (VarSet conj : exist) q.AddExistential(conj);
        consider(q);
      }
      // Advance the mixed-radix counter.
      size_t pos = 0;
      while (pos < idx.size()) {
        if (++idx[pos] < body_options.size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (idx.empty() || pos == idx.size()) break;
    }
    if (heads == all) break;  // avoid VarSet overflow wrap when n == 64
  }

  return result;
}

std::vector<Qhorn1Structure> EnumerateQhorn1(int n) {
  QHORN_CHECK_MSG(n >= 1 && n <= 6, "qhorn-1 enumeration is for n ≤ 6");
  std::vector<Qhorn1Structure> out;

  for (const auto& partition : SetPartitions(n)) {
    // For each part choose (body, role of each head); multi-variable parts
    // need a non-empty proper-subset body.
    struct PartChoice {
      Qhorn1Part part;
    };
    std::vector<std::vector<Qhorn1Part>> choices_per_part;
    for (VarSet part : partition) {
      std::vector<Qhorn1Part> choices;
      std::vector<int> vars = VarsOf(part);
      if (vars.size() == 1) {
        choices.push_back(Qhorn1Part{0, part, 0});  // ∀v
        choices.push_back(Qhorn1Part{0, 0, part});  // ∃v
      } else {
        // Enumerate proper non-empty bodies B ⊂ part.
        int m = static_cast<int>(vars.size());
        for (uint64_t bits = 1; bits + 1 < (uint64_t{1} << m); ++bits) {
          VarSet body = 0;
          for (int j = 0; j < m; ++j) {
            if ((bits >> j) & 1) body |= VarBit(vars[static_cast<size_t>(j)]);
          }
          VarSet head_vars = part & ~body;
          std::vector<int> heads = VarsOf(head_vars);
          int hm = static_cast<int>(heads.size());
          for (uint64_t roles = 0; roles < (uint64_t{1} << hm); ++roles) {
            Qhorn1Part p;
            p.body = body;
            for (int j = 0; j < hm; ++j) {
              VarSet hb = VarBit(heads[static_cast<size_t>(j)]);
              if ((roles >> j) & 1) {
                p.universal_heads |= hb;
              } else {
                p.existential_heads |= hb;
              }
            }
            choices.push_back(p);
          }
        }
      }
      choices_per_part.push_back(std::move(choices));
    }

    // Cartesian product over parts.
    std::vector<size_t> idx(choices_per_part.size(), 0);
    for (;;) {
      Qhorn1Structure s(n);
      for (size_t p = 0; p < idx.size(); ++p) {
        s.AddPart(choices_per_part[p][idx[p]]);
      }
      out.push_back(std::move(s));
      size_t pos = 0;
      while (pos < idx.size()) {
        if (++idx[pos] < choices_per_part[pos].size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (idx.empty() || pos == idx.size()) break;
    }
  }
  return out;
}

uint64_t CountDistinctQhorn1(int n) {
  std::unordered_set<CanonicalForm, CanonicalFormHash> keys;
  for (const Qhorn1Structure& s : EnumerateQhorn1(n)) {
    keys.insert(Canonicalize(s.ToQuery()));
  }
  return keys.size();
}

}  // namespace qhorn
