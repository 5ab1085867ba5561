#include "index/hash_query_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.h"

namespace vcd::index {
namespace {

using sketch::BitSignature;
using sketch::MinHashFamily;
using sketch::Sketch;
using sketch::Sketcher;

/// Builds m random query sketches over a small id universe so equal
/// min-hash values actually occur.
std::vector<Sketch> RandomSketches(const MinHashFamily& fam, int m, Rng* rng,
                                   int set_size = 30, uint32_t universe = 500) {
  Sketcher sk(&fam);
  std::vector<Sketch> out;
  for (int q = 0; q < m; ++q) {
    std::vector<features::CellId> ids;
    for (int i = 0; i < set_size; ++i) {
      ids.push_back(static_cast<features::CellId>(rng->Uniform(universe)));
    }
    out.push_back(sk.FromSequence(ids));
  }
  return out;
}

std::vector<QueryInfo> Infos(int m) {
  std::vector<QueryInfo> infos;
  for (int q = 0; q < m; ++q) infos.push_back(QueryInfo{q + 1, 100 + q});
  return infos;
}

/// Build's rows must equal what the straightforward per-row sort of query
/// indices (by value, ties by index) gives, element for element, with the
/// link invariants intact.
void ExpectRowsMatchIndexSort(const std::vector<Sketch>& sketches,
                              const std::vector<QueryInfo>& infos) {
  auto idx = HashQueryIndex::Build(sketches, infos);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_TRUE(idx->Validate().ok()) << idx->Validate().ToString();
  const int m = static_cast<int>(sketches.size());
  for (int r = 0; r < sketches[0].K(); ++r) {
    std::vector<int> order(static_cast<size_t>(m));
    for (int q = 0; q < m; ++q) order[static_cast<size_t>(q)] = q;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const uint64_t va = sketches[static_cast<size_t>(a)].mins[static_cast<size_t>(r)];
      const uint64_t vb = sketches[static_cast<size_t>(b)].mins[static_cast<size_t>(r)];
      if (va != vb) return va < vb;
      return a < b;
    });
    for (int j = 0; j < m; ++j) {
      const int q = order[static_cast<size_t>(j)];
      const std::pair<uint64_t, int> want = {
          sketches[static_cast<size_t>(q)].mins[static_cast<size_t>(r)],
          infos[static_cast<size_t>(q)].id};
      ASSERT_EQ(idx->ElementAt(r, j), want) << "row " << r << " position " << j;
    }
  }
}

TEST(HashQueryIndexTest, BuildRowsMatchPerRowIndexSort) {
  auto fam = MinHashFamily::Create(48).value();
  Rng rng(77);
  ExpectRowsMatchIndexSort(RandomSketches(fam, 60, &rng), Infos(60));
  // Heavily tied: every row holds only three distinct values, so the
  // order within a row is almost entirely the tie-break.
  std::vector<Sketch> tied(40);
  for (Sketch& sk : tied) {
    sk.mins.resize(32);
    for (uint64_t& v : sk.mins) v = rng.Uniform(3);
  }
  // Ids in reverse so a tie-break on ids instead of positions shows.
  std::vector<QueryInfo> infos = Infos(40);
  std::reverse(infos.begin(), infos.end());
  ExpectRowsMatchIndexSort(tied, infos);
}

TEST(HashQueryIndexTest, BuildValidation) {
  auto fam = MinHashFamily::Create(8).value();
  Rng rng(1);
  auto sketches = RandomSketches(fam, 3, &rng);
  EXPECT_FALSE(HashQueryIndex::Build({}, {}).ok());
  EXPECT_FALSE(HashQueryIndex::Build(sketches, Infos(2)).ok());
  auto dup = Infos(3);
  dup[2].id = dup[0].id;
  EXPECT_EQ(HashQueryIndex::Build(sketches, dup).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(HashQueryIndex::Build(sketches, Infos(3)).ok());
}

TEST(HashQueryIndexTest, BuildInvariants) {
  auto fam = MinHashFamily::Create(32).value();
  Rng rng(3);
  auto idx = HashQueryIndex::Build(RandomSketches(fam, 20, &rng), Infos(20)).value();
  EXPECT_EQ(idx.K(), 32);
  EXPECT_EQ(idx.num_queries(), 20);
  EXPECT_TRUE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, ValidateReportsCorruptedRowOrder) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(11);
  auto idx = HashQueryIndex::Build(RandomSketches(fam, 8, &rng), Infos(8)).value();
  ASSERT_TRUE(idx.Validate().ok());
  // Push the first entry of row 2 above its neighbour: rows must stay sorted
  // by value, so Validate has to notice.
  idx.CorruptValueForTest(2, 0, ~uint64_t{0});
  EXPECT_FALSE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, ValidateReportsBrokenUpLink) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(12);
  auto idx = HashQueryIndex::Build(RandomSketches(fam, 8, &rng), Infos(8)).value();
  ASSERT_TRUE(idx.Validate().ok());
  // Point one up link outside the row: the up/down chains must mirror.
  idx.CorruptUpLinkForTest(1, 0, 9999);
  EXPECT_FALSE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, QuerySketchRoundTrip) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(5);
  auto sketches = RandomSketches(fam, 10, &rng);
  auto idx = HashQueryIndex::Build(sketches, Infos(10)).value();
  for (int q = 0; q < 10; ++q) {
    auto got = idx.QuerySketch(q + 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, sketches[static_cast<size_t>(q)]) << "query " << q + 1;
  }
  EXPECT_EQ(idx.QuerySketch(999).status().code(), StatusCode::kNotFound);
}

TEST(HashQueryIndexTest, ProbeFindsExactDuplicate) {
  auto fam = MinHashFamily::Create(64).value();
  Rng rng(7);
  auto sketches = RandomSketches(fam, 15, &rng);
  auto idx = HashQueryIndex::Build(sketches, Infos(15)).value();
  // Probing with query 4's own sketch must return it with similarity 1.
  auto rl = idx.Probe(sketches[3], 0.7);
  bool found = false;
  for (const RelatedQuery& rq : rl) {
    if (rq.info.id == 4) {
      found = true;
      EXPECT_DOUBLE_EQ(rq.bitsig.Similarity(), 1.0);
      EXPECT_EQ(rq.info.length_frames, 103);
    }
  }
  EXPECT_TRUE(found);
}

TEST(HashQueryIndexTest, ProbeMatchesBruteForceWithoutPruning) {
  // Without pruning, probe must return exactly the queries sharing at least
  // one min-hash value, each with the full signature FromSketches would
  // build.
  auto fam = MinHashFamily::Create(48).value();
  Rng rng(11);
  auto sketches = RandomSketches(fam, 25, &rng, 40, 300);
  auto idx = HashQueryIndex::Build(sketches, Infos(25)).value();
  Sketcher sk(&fam);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<features::CellId> wids;
    for (int i = 0; i < 25; ++i) {
      wids.push_back(static_cast<features::CellId>(rng.Uniform(300)));
    }
    Sketch w = sk.FromSequence(wids);
    auto rl = idx.Probe(w, 0.7, /*enable_pruning=*/false);
    std::set<int> got;
    for (const RelatedQuery& rq : rl) {
      got.insert(rq.info.id);
      BitSignature expect = BitSignature::FromSketches(w, sketches[static_cast<size_t>(rq.info.id - 1)]);
      EXPECT_TRUE(rq.bitsig == expect) << "query " << rq.info.id;
    }
    std::set<int> expect_ids;
    for (int q = 0; q < 25; ++q) {
      if (Sketcher::NumEqual(w, sketches[static_cast<size_t>(q)]) > 0) {
        expect_ids.insert(q + 1);
      }
    }
    EXPECT_EQ(got, expect_ids) << "trial " << trial;
  }
}

TEST(HashQueryIndexTest, PruningOnlyRemovesLemma2Violators) {
  auto fam = MinHashFamily::Create(48).value();
  Rng rng(13);
  auto sketches = RandomSketches(fam, 25, &rng, 40, 300);
  auto idx = HashQueryIndex::Build(sketches, Infos(25)).value();
  Sketcher sk(&fam);
  std::vector<features::CellId> wids;
  for (int i = 0; i < 25; ++i) {
    wids.push_back(static_cast<features::CellId>(rng.Uniform(300)));
  }
  Sketch w = sk.FromSequence(wids);
  const double delta = 0.5;
  auto pruned = idx.Probe(w, delta, true);
  auto full = idx.Probe(w, delta, false);
  // Every survivor satisfies Lemma 2 and appears in the unpruned list.
  std::set<int> full_ids;
  for (const auto& rq : full) full_ids.insert(rq.info.id);
  for (const auto& rq : pruned) {
    EXPECT_TRUE(rq.bitsig.SatisfiesLemma2(delta));
    EXPECT_TRUE(full_ids.count(rq.info.id));
  }
  // Every unpruned entry that satisfies Lemma 2 must have survived.
  std::set<int> pruned_ids;
  for (const auto& rq : pruned) pruned_ids.insert(rq.info.id);
  for (const auto& rq : full) {
    if (rq.bitsig.SatisfiesLemma2(delta)) {
      EXPECT_TRUE(pruned_ids.count(rq.info.id)) << "query " << rq.info.id;
    }
  }
}

TEST(HashQueryIndexTest, ProbeRelatedMatchesBruteForce) {
  auto fam = MinHashFamily::Create(32).value();
  Rng rng(17);
  auto sketches = RandomSketches(fam, 20, &rng, 40, 200);
  auto idx = HashQueryIndex::Build(sketches, Infos(20)).value();
  Sketcher sk(&fam);
  std::vector<features::CellId> wids;
  for (int i = 0; i < 30; ++i) {
    wids.push_back(static_cast<features::CellId>(rng.Uniform(200)));
  }
  Sketch w = sk.FromSequence(wids);
  auto rel = idx.ProbeRelated(w);
  std::set<int> got;
  for (const auto& info : rel) got.insert(info.id);
  std::set<int> expect;
  for (int q = 0; q < 20; ++q) {
    if (Sketcher::NumEqual(w, sketches[static_cast<size_t>(q)]) > 0) expect.insert(q + 1);
  }
  EXPECT_EQ(got, expect);
}

TEST(HashQueryIndexTest, InsertMaintainsInvariantsAndProbe) {
  auto fam = MinHashFamily::Create(24).value();
  Rng rng(19);
  auto sketches = RandomSketches(fam, 10, &rng, 30, 200);
  const auto infos = Infos(10);
  auto idx = HashQueryIndex::Build({sketches.begin(), sketches.begin() + 8},
                                   {infos.begin(), infos.begin() + 8})
                 .value();
  ASSERT_TRUE(idx.Insert(sketches[8], QueryInfo{9, 108}).ok());
  ASSERT_TRUE(idx.Insert(sketches[9], QueryInfo{10, 109}).ok());
  EXPECT_EQ(idx.num_queries(), 10);
  EXPECT_TRUE(idx.Validate().ok());
  // The incrementally built index behaves like a batch-built one.
  auto batch = HashQueryIndex::Build(sketches, Infos(10)).value();
  auto w = sketches[9];
  auto a = idx.Probe(w, 0.7, false);
  auto b = batch.Probe(w, 0.7, false);
  std::set<int> ia, ib;
  for (const auto& rq : a) ia.insert(rq.info.id);
  for (const auto& rq : b) ib.insert(rq.info.id);
  EXPECT_EQ(ia, ib);
}

TEST(HashQueryIndexTest, InsertDuplicateIdRejected) {
  auto fam = MinHashFamily::Create(8).value();
  Rng rng(23);
  auto sketches = RandomSketches(fam, 3, &rng);
  auto idx = HashQueryIndex::Build(sketches, Infos(3)).value();
  EXPECT_EQ(idx.Insert(sketches[0], QueryInfo{1, 5}).code(),
            StatusCode::kAlreadyExists);
}

TEST(HashQueryIndexTest, InsertWrongKRejected) {
  auto fam8 = MinHashFamily::Create(8).value();
  auto fam16 = MinHashFamily::Create(16).value();
  Rng rng(29);
  auto idx = HashQueryIndex::Build(RandomSketches(fam8, 3, &rng), Infos(3)).value();
  auto wrong = RandomSketches(fam16, 1, &rng);
  EXPECT_EQ(idx.Insert(wrong[0], QueryInfo{99, 5}).code(),
            StatusCode::kInvalidArgument);
}

TEST(HashQueryIndexTest, RemoveMaintainsInvariants) {
  auto fam = MinHashFamily::Create(24).value();
  Rng rng(31);
  auto sketches = RandomSketches(fam, 12, &rng, 30, 200);
  auto idx = HashQueryIndex::Build(sketches, Infos(12)).value();
  ASSERT_TRUE(idx.Remove(5).ok());
  ASSERT_TRUE(idx.Remove(12).ok());
  ASSERT_TRUE(idx.Remove(1).ok());
  EXPECT_EQ(idx.num_queries(), 9);
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.Remove(5).code(), StatusCode::kNotFound);
  // Removed queries never come back from probes.
  auto rl = idx.Probe(sketches[4], 0.0, false);
  for (const auto& rq : rl) EXPECT_NE(rq.info.id, 5);
  // Remaining queries are still probed correctly.
  auto rl2 = idx.Probe(sketches[2], 0.7, false);
  bool found = false;
  for (const auto& rq : rl2) found |= (rq.info.id == 3);
  EXPECT_TRUE(found);
}

TEST(HashQueryIndexTest, InsertRemoveChurnStressKeepsInvariants) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(37);
  auto sketches = RandomSketches(fam, 40, &rng, 20, 150);
  const auto infos = Infos(40);
  auto idx = HashQueryIndex::Build({sketches.begin(), sketches.begin() + 5},
                                   {infos.begin(), infos.begin() + 5})
                 .value();
  std::set<int> live = {1, 2, 3, 4, 5};
  for (int step = 0; step < 100; ++step) {
    if (rng.Bernoulli(0.5) && live.size() < 40) {
      // Insert a random non-live query.
      int q = 1 + static_cast<int>(rng.Uniform(40));
      if (live.count(q)) continue;
      ASSERT_TRUE(idx.Insert(sketches[static_cast<size_t>(q - 1)],
                             QueryInfo{q, 100 + q})
                      .ok());
      live.insert(q);
    } else if (live.size() > 1) {
      int pick = static_cast<int>(rng.Uniform(live.size()));
      auto it = live.begin();
      std::advance(it, pick);
      ASSERT_TRUE(idx.Remove(*it).ok());
      live.erase(it);
    }
    ASSERT_TRUE(idx.Validate().ok()) << "step " << step;
    ASSERT_EQ(idx.num_queries(), static_cast<int>(live.size()));
  }
}

TEST(HashQueryIndexTest, SingleQueryIndex) {
  auto fam = MinHashFamily::Create(8).value();
  Rng rng(41);
  auto sketches = RandomSketches(fam, 1, &rng);
  auto idx = HashQueryIndex::Build(sketches, {QueryInfo{7, 42}}).value();
  EXPECT_TRUE(idx.Validate().ok());
  auto rl = idx.Probe(sketches[0], 0.7);
  ASSERT_EQ(rl.size(), 1u);
  EXPECT_EQ(rl[0].info.id, 7);
  EXPECT_DOUBLE_EQ(rl[0].bitsig.Similarity(), 1.0);
}

TEST(HashQueryIndexTest, KEqualsOneWorks) {
  auto fam = MinHashFamily::Create(1).value();
  Rng rng(43);
  auto sketches = RandomSketches(fam, 5, &rng, 10, 50);
  auto idx = HashQueryIndex::Build(sketches, Infos(5)).value();
  EXPECT_TRUE(idx.Validate().ok());
  auto rl = idx.Probe(sketches[0], 0.5, false);
  bool found = false;
  for (const auto& rq : rl) found |= rq.info.id == 1;
  EXPECT_TRUE(found);
}


TEST(HashQueryIndexTest, EveryQueryFindsItselfPerfectly) {
  // Probing with each indexed query's own sketch returns that query with a
  // similarity-1 signature, across many sizes.
  auto fam = MinHashFamily::Create(40).value();
  Rng rng(47);
  for (int m : {1, 2, 7, 33}) {
    auto sketches = RandomSketches(fam, m, &rng, 25, 400);
    auto idx = HashQueryIndex::Build(sketches, Infos(m)).value();
    for (int q = 0; q < m; ++q) {
      auto rl = idx.Probe(sketches[static_cast<size_t>(q)], 0.9);
      bool self = false;
      for (const RelatedQuery& rq : rl) {
        if (rq.info.id == q + 1) {
          self = true;
          EXPECT_DOUBLE_EQ(rq.bitsig.Similarity(), 1.0);
        }
      }
      EXPECT_TRUE(self) << "m=" << m << " q=" << q;
    }
  }
}

TEST(HashQueryIndexTest, ColCacheSurvivesChurn) {
  // The cached row-0 column must stay consistent through arbitrary
  // insert/remove interleavings (checked by Validate' col rules).
  auto fam = MinHashFamily::Create(12).value();
  Rng rng(53);
  auto sketches = RandomSketches(fam, 20, &rng, 15, 100);
  const auto infos = Infos(20);
  auto idx = HashQueryIndex::Build({sketches.begin(), sketches.begin() + 10},
                                   {infos.begin(), infos.begin() + 10})
                 .value();
  for (int q = 10; q < 20; ++q) {
    ASSERT_TRUE(idx.Insert(sketches[static_cast<size_t>(q)],
                           QueryInfo{q + 1, 100 + q})
                    .ok());
    ASSERT_TRUE(idx.Remove(q - 9).ok());
    ASSERT_TRUE(idx.Validate().ok()) << "after churn step " << q;
  }
  EXPECT_EQ(idx.num_queries(), 10);
}

}  // namespace
}  // namespace vcd::index
