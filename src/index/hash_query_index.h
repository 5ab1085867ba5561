#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sketch/bit_signature.h"
#include "sketch/minhash.h"
#include "sketch/signature_pool.h"
#include "util/status.h"

/// \file hash_query_index.h
/// The Hash-Query index over continuous-query sketches (paper §V-C, Fig. 4).
///
/// The K min-hash values of the m subscribed queries are organized in a
/// K-row array `HQ[K][m]`. Each element is a triple `<value, up, down>`:
/// `value` is one query's min-hash value for that row's hash function, and
/// `up`/`down` are the positions of the *same query's* values in the
/// adjacent rows. Rows are kept sorted by value so a basic-window sketch can
/// be matched by one binary search per row; `up` chains recover the query id
/// (stored only at row 0), and `down` chains let already-related queries be
/// tracked in O(1) per row while their bit signatures are filled in
/// (`ProbeIndex`, Fig. 5), with Lemma-2 pruning applied as early as possible.

namespace vcd::index {

/// Query metadata kept at the row-0 column entries.
struct QueryInfo {
  int id = 0;             ///< subscriber-assigned query id (unique)
  int length_frames = 0;  ///< query length L in key frames
};

/// One element of `R_L`: a query related to the probed basic window,
/// together with the window's bit signature against it.
struct RelatedQuery {
  QueryInfo info;
  sketch::BitSignature bitsig;
};

/// `R_L` element on the pooled path: the signature lives in a
/// SignaturePool slot owned by the caller's pool.
struct PooledRelatedQuery {
  QueryInfo info;
  sketch::SignaturePool::Handle sig = sketch::SignaturePool::kInvalidHandle;
};

/// Reusable per-probe buffers for the allocation-free ProbeInto /
/// ProbeRelatedInto paths. Callers keep one instance per detector and pass
/// it to every probe; its vectors retain their capacity across windows.
struct ProbeScratch {
  /// One in-flight related query of ProbeInto (the paper's `lp` walker).
  struct Live {
    QueryInfo info;
    sketch::SignaturePool::Handle sig = sketch::SignaturePool::kInvalidHandle;
    int lp = -1;
    int col = -1;
    int num_less = 0;
  };
  std::vector<char> seen;
  std::vector<Live> live;
  std::vector<int> row0_positions;
};

/// \brief The K×m triple array with online insert/remove and ProbeIndex.
class HashQueryIndex {
 public:
  /// Builds the index from parallel vectors of query sketches and infos.
  /// All sketches must have the same K ≥ 1; ids must be unique.
  static Result<HashQueryIndex> Build(const std::vector<sketch::Sketch>& sketches,
                                      const std::vector<QueryInfo>& infos);

  /// Number of hash functions K.
  int K() const { return static_cast<int>(rows_.size()); }
  /// Number of subscribed queries m.
  int num_queries() const {
    return rows_.empty() ? 0 : static_cast<int>(rows_[0].size());
  }

  /// Subscribes a new query online. Fails if the id already exists or the
  /// sketch K does not match.
  Status Insert(const sketch::Sketch& sketch, const QueryInfo& info);

  /// Unsubscribes a query online. NotFound if the id is not indexed.
  Status Remove(int query_id);

  /// \brief ProbeIndex (paper Fig. 5): returns the related-query list `R_L`
  /// for basic-window sketch \p window.
  ///
  /// A query becomes *related* once one of its min-hash values equals the
  /// window's; from then on its bit signature is filled row by row through
  /// the `down` links. When \p enable_pruning is set, queries whose partial
  /// signature already violates Lemma 2 for threshold \p delta are dropped
  /// immediately (and their remaining rows never touched).
  std::vector<RelatedQuery> Probe(const sketch::Sketch& window, double delta,
                                  bool enable_pruning = true) const;

  /// Lighter probe for the Sketch-representation methods: just the infos of
  /// related queries (those sharing at least one min-hash value), without
  /// building bit signatures.
  std::vector<QueryInfo> ProbeRelated(const sketch::Sketch& window) const;

  /// \brief Probe (Fig. 5) writing each related query's bit signature
  /// straight into a SignaturePool slot — the allocation-free hot path.
  ///
  /// Semantically identical to Probe(): \p out receives one entry per
  /// surviving related query, with the signature bits in `pool`. Slots of
  /// queries pruned mid-probe are freed back to the pool. \p scratch holds
  /// the per-probe working set; its buffers are reused across calls.
  void ProbeInto(const sketch::Sketch& window, double delta,
                 bool enable_pruning, sketch::SignaturePool* pool,
                 ProbeScratch* scratch,
                 std::vector<PooledRelatedQuery>* out) const;

  /// ProbeRelated into caller-owned buffers (no allocation after warmup).
  void ProbeRelatedInto(const sketch::Sketch& window, ProbeScratch* scratch,
                        std::vector<QueryInfo>* out) const;

  /// Reconstructs the sketch of query \p query_id by walking the `down`
  /// chain from its row-0 entry — the reverse lookup the paper describes.
  Result<sketch::Sketch> QuerySketch(int query_id) const;

  /// The element at position \p pos of row \p row (rows are sorted by
  /// value): its min-hash value and the id of the query it belongs to. For
  /// tests and debugging.
  std::pair<uint64_t, int> ElementAt(int row, int pos) const {
    const Entry& e = rows_[static_cast<size_t>(row)][static_cast<size_t>(pos)];
    return {e.value, row0_info_[static_cast<size_t>(e.col)].id};
  }

  /// Verifies all structural invariants (row sortedness, up/down chain
  /// consistency, row-0 info alignment). Exposed for tests and the
  /// detector's debug validate_state sweep.
  Status Validate() const;

  /// Overwrites the stored min-hash value at (\p row, \p pos) — exists only
  /// so tests can corrupt the array and assert Validate() reports it.
  /// Library code must not call this.
  void CorruptValueForTest(int row, int pos, uint64_t value) {
    rows_[static_cast<size_t>(row)][static_cast<size_t>(pos)].value = value;
  }

  /// Overwrites the up link at (\p row, \p pos) — test-only, as above.
  void CorruptUpLinkForTest(int row, int pos, int32_t up) {
    rows_[static_cast<size_t>(row)][static_cast<size_t>(pos)].up = up;
  }

 private:
  /// One HQ element. `up` is unused (-1) at row 0, `down` at row K-1.
  /// `col` caches the entry's query's position at row 0 (derivable from the
  /// up chain; stored so a probe can identify an equal hit's query in O(1)
  /// instead of an O(row) up walk — +4 bytes per triple).
  struct Entry {
    uint64_t value = 0;
    int32_t up = -1;
    int32_t down = -1;
    int32_t col = -1;
  };

  HashQueryIndex() = default;

  /// Positions of query \p query_id in every row, via the down chain.
  /// Returns NotFound when the id is absent.
  Status ColumnPositions(int query_id, std::vector<int>* pos) const;

  /// Range [lo, hi) of positions in \p row whose value equals \p v.
  std::pair<int, int> EqualRange(int row, uint64_t v) const;

  std::vector<std::vector<Entry>> rows_;  ///< rows_[r] sorted by value
  std::vector<QueryInfo> row0_info_;      ///< aligned with rows_[0]
};

}  // namespace vcd::index
