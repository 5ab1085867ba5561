#include "index/hash_query_index.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace vcd::index {

Result<HashQueryIndex> HashQueryIndex::Build(const std::vector<sketch::Sketch>& sketches,
                                             const std::vector<QueryInfo>& infos) {
  if (sketches.size() != infos.size()) {
    return Status::InvalidArgument("sketches/infos size mismatch");
  }
  if (sketches.empty()) return Status::InvalidArgument("cannot build an empty index");
  const int k = sketches[0].K();
  if (k < 1) return Status::InvalidArgument("sketch K must be >= 1");
  std::unordered_set<int> ids;
  for (size_t q = 0; q < sketches.size(); ++q) {
    if (sketches[q].K() != k) return Status::InvalidArgument("inconsistent sketch K");
    if (!ids.insert(infos[q].id).second) {
      return Status::AlreadyExists("duplicate query id " + std::to_string(infos[q].id));
    }
  }
  const int m = static_cast<int>(sketches.size());
  const auto at = [m](int r, int i) {
    return static_cast<size_t>(r) * static_cast<size_t>(m) + static_cast<size_t>(i);
  };
  HashQueryIndex idx;
  idx.rows_.resize(static_cast<size_t>(k));
  // pos[at(r, q)] = position of query q in row r; query[at(r, j)] = the
  // query at position j of row r.
  std::vector<int> pos(static_cast<size_t>(k) * static_cast<size_t>(m));
  std::vector<int> query(pos.size());
  // Each row sorts (value, query) pairs gathered once, so comparisons touch
  // one contiguous array; ties break on the query index, as the rows
  // require.
  std::vector<std::pair<uint64_t, int>> keyed(static_cast<size_t>(m));
  for (int r = 0; r < k; ++r) {
    for (int q = 0; q < m; ++q) {
      keyed[static_cast<size_t>(q)] = {
          sketches[static_cast<size_t>(q)].mins[static_cast<size_t>(r)], q};
    }
    std::sort(keyed.begin(), keyed.end());
    auto& row = idx.rows_[static_cast<size_t>(r)];
    row.resize(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      const auto& [value, q] = keyed[static_cast<size_t>(j)];
      row[static_cast<size_t>(j)].value = value;
      pos[at(r, q)] = j;
      query[at(r, j)] = q;
    }
  }
  for (int r = 0; r < k; ++r) {
    auto& row = idx.rows_[static_cast<size_t>(r)];
    for (int j = 0; j < m; ++j) {
      const int q = query[at(r, j)];
      if (r > 0) row[static_cast<size_t>(j)].up = pos[at(r - 1, q)];
      if (r + 1 < k) row[static_cast<size_t>(j)].down = pos[at(r + 1, q)];
      row[static_cast<size_t>(j)].col = pos[at(0, q)];
    }
  }
  idx.row0_info_.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    idx.row0_info_[static_cast<size_t>(j)] = infos[static_cast<size_t>(query[at(0, j)])];
  }
  return idx;
}

std::pair<int, int> HashQueryIndex::EqualRange(int row, uint64_t v) const {
  const auto& r = rows_[static_cast<size_t>(row)];
  auto lo = std::lower_bound(r.begin(), r.end(), v,
                             [](const Entry& e, uint64_t x) { return e.value < x; });
  auto hi = std::upper_bound(r.begin(), r.end(), v,
                             [](uint64_t x, const Entry& e) { return x < e.value; });
  return {static_cast<int>(lo - r.begin()), static_cast<int>(hi - r.begin())};
}

Status HashQueryIndex::ColumnPositions(int query_id, std::vector<int>* pos) const {
  int j = -1;
  for (size_t i = 0; i < row0_info_.size(); ++i) {
    if (row0_info_[i].id == query_id) {
      j = static_cast<int>(i);
      break;
    }
  }
  if (j < 0) return Status::NotFound("query id not indexed");
  pos->resize(rows_.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    (*pos)[r] = j;
    j = rows_[r][static_cast<size_t>(j)].down;
  }
  return Status::OK();
}

Status HashQueryIndex::Insert(const sketch::Sketch& sk, const QueryInfo& info) {
  const int k = K();
  if (sk.K() != k) return Status::InvalidArgument("sketch K does not match index");
  for (const auto& qi : row0_info_) {
    if (qi.id == info.id) {
      return Status::AlreadyExists("query id " + std::to_string(info.id));
    }
  }
  // Insertion position per row, found by binary search (paper §V-C.1).
  std::vector<int> pos(static_cast<size_t>(k));
  for (int r = 0; r < k; ++r) {
    const auto& row = rows_[static_cast<size_t>(r)];
    auto it = std::upper_bound(
        row.begin(), row.end(), sk.mins[static_cast<size_t>(r)],
        [](uint64_t x, const Entry& e) { return x < e.value; });
    pos[static_cast<size_t>(r)] = static_cast<int>(it - row.begin());
  }
  // Shift the up/down pointers of entries referencing positions at or after
  // the insertion points, then splice the new column in.
  for (int r = 0; r < k; ++r) {
    for (Entry& e : rows_[static_cast<size_t>(r)]) {
      if (r > 0 && e.up >= pos[static_cast<size_t>(r - 1)]) ++e.up;
      if (r + 1 < k && e.down >= pos[static_cast<size_t>(r + 1)]) ++e.down;
      if (e.col >= pos[0]) ++e.col;
    }
  }
  for (int r = 0; r < k; ++r) {
    Entry e;
    e.value = sk.mins[static_cast<size_t>(r)];
    e.up = r > 0 ? pos[static_cast<size_t>(r - 1)] : -1;
    e.down = r + 1 < k ? pos[static_cast<size_t>(r + 1)] : -1;
    e.col = pos[0];
    auto& row = rows_[static_cast<size_t>(r)];
    row.insert(row.begin() + pos[static_cast<size_t>(r)], e);
  }
  row0_info_.insert(row0_info_.begin() + pos[0], info);
  return Status::OK();
}

Status HashQueryIndex::Remove(int query_id) {
  const int k = K();
  std::vector<int> pos;
  VCD_RETURN_IF_ERROR(ColumnPositions(query_id, &pos));
  for (int r = 0; r < k; ++r) {
    auto& row = rows_[static_cast<size_t>(r)];
    row.erase(row.begin() + pos[static_cast<size_t>(r)]);
  }
  row0_info_.erase(row0_info_.begin() + pos[0]);
  for (int r = 0; r < k; ++r) {
    for (Entry& e : rows_[static_cast<size_t>(r)]) {
      if (r > 0 && e.up > pos[static_cast<size_t>(r - 1)]) --e.up;
      if (r + 1 < k && e.down > pos[static_cast<size_t>(r + 1)]) --e.down;
      if (e.col > pos[0]) --e.col;
    }
  }
  return Status::OK();
}

std::vector<RelatedQuery> HashQueryIndex::Probe(const sketch::Sketch& window,
                                                double delta,
                                                bool enable_pruning) const {
  const int k = K();
  // Internal element: a RelatedQuery plus its current row position (the
  // paper's `lp`, advanced through the down links) and the row-0 column
  // identifying its query. Only *live* elements are advanced; queries
  // already discovered (live or pruned) are remembered in a per-probe
  // bitmap keyed by the entries' cached `col`, so a later equal hit is
  // recognized in O(1) instead of an O(row) up walk.
  struct Ele {
    RelatedQuery rq;
    int lp = -1;
    int col = -1;
    int num_less = 0;  ///< incremental N_s, so Lemma 2 is O(1) per row
  };
  // Lemma 2 bound (O(1) per row): a query stays viable while N_s ≤ K(1−δ).
  // Note a single window cannot be pruned harder: even a window disjoint
  // from the query has N_s ≈ |w|/(|w|+|q|) < 1−δ for typical sizes, and its
  // *extensions* may still match — which is exactly why R_L must keep
  // tracking weakly related queries.
  const double max_less = static_cast<double>(k) * (1.0 - delta) + 1e-9;
  std::vector<char> seen(row0_info_.size(), 0);
  std::vector<Ele> live;
  std::vector<RelatedQuery> out;
  for (int r = 0; r < k; ++r) {
    const uint64_t wv = window.mins[static_cast<size_t>(r)];
    const auto& row = rows_[static_cast<size_t>(r)];
    // (1) Advance live elements through their down links and set this
    // row's relation bits (Fig. 5 steps 3–6), pruning eagerly (steps 9–10).
    for (size_t e = 0; e < live.size();) {
      Ele& ele = live[e];
      if (r > 0) {
        ele.lp = rows_[static_cast<size_t>(r - 1)][static_cast<size_t>(ele.lp)].down;
      }
      const uint64_t qv = row[static_cast<size_t>(ele.lp)].value;
      ele.rq.bitsig.SetRelation(r, wv, qv);
      if (wv < qv) ++ele.num_less;
      if (enable_pruning && ele.num_less > max_less) {
        live[e] = std::move(live.back());  // seen[col] stays set: no revival
        live.pop_back();
      } else {
        ++e;
      }
    }
    // (2) Relevant-queries search (steps 12–16): equal positions whose
    // query is not yet in R_L start a new element, with the earlier rows'
    // bits recovered by the up walk.
    auto [lo, hi] = EqualRange(r, wv);
    for (int j = lo; j < hi; ++j) {
      const int col = row[static_cast<size_t>(j)].col;
      if (seen[static_cast<size_t>(col)]) continue;
      seen[static_cast<size_t>(col)] = 1;
      Ele ele;
      ele.lp = j;
      ele.col = col;
      ele.rq.bitsig = sketch::BitSignature(k);
      ele.rq.bitsig.SetRelation(r, wv, wv);  // "=" at the discovery row
      int p = j;
      for (int rr = r; rr > 0; --rr) {
        p = rows_[static_cast<size_t>(rr)][static_cast<size_t>(p)].up;
        const uint64_t wvr = window.mins[static_cast<size_t>(rr - 1)];
        const uint64_t qvr =
            rows_[static_cast<size_t>(rr - 1)][static_cast<size_t>(p)].value;
        ele.rq.bitsig.SetRelation(rr - 1, wvr, qvr);
        if (wvr < qvr) ++ele.num_less;
      }
      ele.rq.info = row0_info_[static_cast<size_t>(col)];
      if (enable_pruning && ele.num_less > max_less) continue;  // stays seen
      live.push_back(std::move(ele));
    }
  }
  out.reserve(live.size());
  for (Ele& e : live) out.push_back(std::move(e.rq));
  return out;
}

void HashQueryIndex::ProbeInto(const sketch::Sketch& window, double delta,
                               bool enable_pruning, sketch::SignaturePool* pool,
                               ProbeScratch* scratch,
                               std::vector<PooledRelatedQuery>* out) const {
  const int k = K();
  // Mirror of Probe() with the signature bits written into pool slots; see
  // the comments there for the algorithm. The only behavioural difference
  // is resource handling: pruned queries free their slot immediately.
  const double max_less = static_cast<double>(k) * (1.0 - delta) + 1e-9;
  scratch->seen.assign(row0_info_.size(), 0);
  scratch->live.clear();
  out->clear();
  auto& live = scratch->live;
  for (int r = 0; r < k; ++r) {
    const uint64_t wv = window.mins[static_cast<size_t>(r)];
    const auto& row = rows_[static_cast<size_t>(r)];
    for (size_t e = 0; e < live.size();) {
      ProbeScratch::Live& ele = live[e];
      if (r > 0) {
        ele.lp = rows_[static_cast<size_t>(r - 1)][static_cast<size_t>(ele.lp)].down;
      }
      const uint64_t qv = row[static_cast<size_t>(ele.lp)].value;
      pool->SetRelation(ele.sig, r, wv, qv);
      if (wv < qv) ++ele.num_less;
      if (enable_pruning && ele.num_less > max_less) {
        pool->Free(ele.sig);
        live[e] = live.back();  // seen[col] stays set: no revival
        live.pop_back();
      } else {
        ++e;
      }
    }
    auto [lo, hi] = EqualRange(r, wv);
    for (int j = lo; j < hi; ++j) {
      const int col = row[static_cast<size_t>(j)].col;
      if (scratch->seen[static_cast<size_t>(col)]) continue;
      scratch->seen[static_cast<size_t>(col)] = 1;
      ProbeScratch::Live ele;
      ele.lp = j;
      ele.col = col;
      ele.sig = pool->Allocate();
      pool->SetRelation(ele.sig, r, wv, wv);  // "=" at the discovery row
      int p = j;
      for (int rr = r; rr > 0; --rr) {
        p = rows_[static_cast<size_t>(rr)][static_cast<size_t>(p)].up;
        const uint64_t wvr = window.mins[static_cast<size_t>(rr - 1)];
        const uint64_t qvr =
            rows_[static_cast<size_t>(rr - 1)][static_cast<size_t>(p)].value;
        pool->SetRelation(ele.sig, rr - 1, wvr, qvr);
        if (wvr < qvr) ++ele.num_less;
      }
      ele.info = row0_info_[static_cast<size_t>(col)];
      if (enable_pruning && ele.num_less > max_less) {  // stays seen
        pool->Free(ele.sig);
        continue;
      }
      live.push_back(ele);
    }
  }
  out->reserve(live.size());
  for (const ProbeScratch::Live& e : live) {
    out->push_back(PooledRelatedQuery{e.info, e.sig});
  }
  live.clear();
}

void HashQueryIndex::ProbeRelatedInto(const sketch::Sketch& window,
                                      ProbeScratch* scratch,
                                      std::vector<QueryInfo>* out) const {
  const int k = K();
  scratch->seen.assign(row0_info_.size(), 0);
  scratch->row0_positions.clear();
  out->clear();
  for (int r = 0; r < k; ++r) {
    const auto& row = rows_[static_cast<size_t>(r)];
    auto [lo, hi] = EqualRange(r, window.mins[static_cast<size_t>(r)]);
    for (int j = lo; j < hi; ++j) {
      const int col = row[static_cast<size_t>(j)].col;
      if (scratch->seen[static_cast<size_t>(col)]) continue;
      scratch->seen[static_cast<size_t>(col)] = 1;
      scratch->row0_positions.push_back(col);
    }
  }
  std::sort(scratch->row0_positions.begin(), scratch->row0_positions.end());
  out->reserve(scratch->row0_positions.size());
  for (int p : scratch->row0_positions) {
    out->push_back(row0_info_[static_cast<size_t>(p)]);
  }
}

std::vector<QueryInfo> HashQueryIndex::ProbeRelated(const sketch::Sketch& window) const {
  const int k = K();
  // The cached `col` identifies each equal hit's query in O(1); a bitmap
  // dedups across rows, so the whole probe is one binary search per row.
  std::vector<char> seen(row0_info_.size(), 0);
  std::vector<int> row0_positions;
  for (int r = 0; r < k; ++r) {
    const auto& row = rows_[static_cast<size_t>(r)];
    auto [lo, hi] = EqualRange(r, window.mins[static_cast<size_t>(r)]);
    for (int j = lo; j < hi; ++j) {
      const int col = row[static_cast<size_t>(j)].col;
      if (seen[static_cast<size_t>(col)]) continue;
      seen[static_cast<size_t>(col)] = 1;
      row0_positions.push_back(col);
    }
  }
  std::sort(row0_positions.begin(), row0_positions.end());
  std::vector<QueryInfo> out;
  out.reserve(row0_positions.size());
  for (int p : row0_positions) out.push_back(row0_info_[static_cast<size_t>(p)]);
  return out;
}

Result<sketch::Sketch> HashQueryIndex::QuerySketch(int query_id) const {
  std::vector<int> pos;
  VCD_RETURN_IF_ERROR(ColumnPositions(query_id, &pos));
  sketch::Sketch sk;
  sk.mins.resize(rows_.size());
  for (size_t r = 0; r < rows_.size(); ++r) {
    sk.mins[r] = rows_[r][static_cast<size_t>(pos[r])].value;
  }
  return sk;
}

Status HashQueryIndex::Validate() const {
  const int k = K();
  const size_t m = row0_info_.size();
  for (int r = 0; r < k; ++r) {
    const auto& row = rows_[static_cast<size_t>(r)];
    if (row.size() != m) return Status::Internal("row size mismatch");
    for (size_t j = 0; j + 1 < row.size(); ++j) {
      if (row[j].value > row[j + 1].value) {
        return Status::Internal("row " + std::to_string(r) + " not sorted");
      }
    }
    for (size_t j = 0; j < row.size(); ++j) {
      const Entry& e = row[j];
      if (r > 0) {
        if (e.up < 0 || e.up >= static_cast<int>(m)) {
          return Status::Internal("up pointer out of range");
        }
        if (rows_[static_cast<size_t>(r - 1)][static_cast<size_t>(e.up)].down !=
            static_cast<int>(j)) {
          return Status::Internal("up/down pointers not reciprocal");
        }
      } else if (e.up != -1) {
        return Status::Internal("row 0 must have up == -1");
      }
      if (r + 1 < k) {
        if (e.down < 0 || e.down >= static_cast<int>(m)) {
          return Status::Internal("down pointer out of range");
        }
      } else if (e.down != -1) {
        return Status::Internal("last row must have down == -1");
      }
      // The cached column must agree along the up chain and with the
      // identity at row 0.
      if (r == 0) {
        if (e.col != static_cast<int>(j)) {
          return Status::Internal("row-0 col must equal its own position");
        }
      } else if (e.col !=
                 rows_[static_cast<size_t>(r - 1)][static_cast<size_t>(e.up)].col) {
        return Status::Internal("col cache inconsistent along up chain");
      }
    }
  }
  // Every row-0 column must reach row K-1 through distinct positions.
  for (int r = 0; r + 1 < k; ++r) {
    std::vector<bool> seen(m, false);
    for (size_t j = 0; j < m; ++j) {
      int d = rows_[static_cast<size_t>(r)][j].down;
      if (seen[static_cast<size_t>(d)]) return Status::Internal("down chain collision");
      seen[static_cast<size_t>(d)] = true;
    }
  }
  return Status::OK();
}

}  // namespace vcd::index
