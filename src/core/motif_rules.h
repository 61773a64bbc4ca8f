#ifndef HOMETS_CORE_MOTIF_RULES_H_
#define HOMETS_CORE_MOTIF_RULES_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "core/motif.h"

namespace homets::core {

/// \brief A motif under construction by either Definition 5 miner,
/// MotifDiscovery (batch) or StreamingMotifMiner (online). `changed` is set
/// when the motif is created, gains a window, absorbs another motif or loses
/// a member to eviction (DESIGN.md §5).
struct MotifCandidate {
  size_t id = 0;  ///< creation order
  std::vector<size_t> members;
  bool changed = true;
};

/// \brief Definition 5 assignment: the position of the motif with the
/// highest mean cor(new window, member) among those where some member
/// reaches φ and every member reaches group_factor · φ (earliest wins ties),
/// or -1 when none is admissible.
int BestAdmissibleMotif(const std::vector<MotifCandidate>& motifs,
                        const MotifOptions& options,
                        const std::function<double(size_t)>& cor_with_new);

/// \brief Definition 5 merge rule to a fixed point: the first pair (a, b),
/// a < b, whose cross pairs all reach merge_threshold merges (b's members
/// are appended to a's, a keeps its id, b is erased) and the scan restarts.
/// Pairs where neither side changed since the last pass that found no merge
/// are skipped; the final pass clears every flag. Returns the merge count.
size_t MergeMotifs(std::vector<MotifCandidate>* motifs,
                   const MotifOptions& options,
                   const std::function<double(size_t, size_t)>& pair_cor);

}  // namespace homets::core

#endif  // HOMETS_CORE_MOTIF_RULES_H_
