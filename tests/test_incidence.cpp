// Tests for the incidence-matrix builders (§4.2) — the core reformulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.hpp"
#include "src/sparse/incidence.hpp"

namespace sptx {
namespace {

std::vector<Triplet> random_batch(index_t m, index_t n, index_t r, Rng& rng) {
  std::vector<Triplet> batch;
  batch.reserve(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i) {
    batch.push_back(
        {static_cast<std::int64_t>(rng.next_below(
             static_cast<std::uint64_t>(n))),
         static_cast<std::int64_t>(
             rng.next_below(static_cast<std::uint64_t>(r))),
         static_cast<std::int64_t>(
             rng.next_below(static_cast<std::uint64_t>(n)))});
  }
  return batch;
}

TEST(Incidence, HtMatchesFigure3a) {
  // Figure 3(a): h-idx = 5, t-idx = 15, entity-count = 22.
  std::vector<Triplet> batch = {{5, 0, 15}};
  const Coo a = build_ht_incidence(batch, 22);
  EXPECT_EQ(a.rows, 1);
  EXPECT_EQ(a.cols, 22);
  const Matrix d = to_dense(a);
  EXPECT_FLOAT_EQ(d.at(0, 5), 1.0f);
  EXPECT_FLOAT_EQ(d.at(0, 15), -1.0f);
  float sum_abs = 0.0f;
  for (index_t j = 0; j < 22; ++j) sum_abs += std::abs(d.at(0, j));
  EXPECT_FLOAT_EQ(sum_abs, 2.0f);
}

TEST(Incidence, HrtMatchesFigure3b) {
  // Figure 3(b): h-idx = 5, t-idx = 15, r-idx = 2, entity-count = 20,
  // relation column offset by entity count → column 22.
  std::vector<Triplet> batch = {{5, 2, 15}};
  const Coo a = build_hrt_incidence(batch, 20, 10);
  EXPECT_EQ(a.cols, 30);
  const Matrix d = to_dense(a);
  EXPECT_FLOAT_EQ(d.at(0, 5), 1.0f);
  EXPECT_FLOAT_EQ(d.at(0, 15), -1.0f);
  EXPECT_FLOAT_EQ(d.at(0, 22), 1.0f);
}

// Appendix B property: nnz per row is exactly 2 (ht) / 3 (hrt) regardless
// of graph density or duplicate triplets.
class IncidenceSparsityTest : public ::testing::TestWithParam<int> {};

TEST_P(IncidenceSparsityTest, HtHasExactlyTwoNnzPerRow) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto batch = random_batch(50, 30, 6, rng);
  const Csr a = build_ht_incidence_csr(batch, 30);
  for (index_t i = 0; i < a.rows; ++i) EXPECT_EQ(a.row_nnz(i), 2);
  EXPECT_EQ(a.nnz(), 100);
}

TEST_P(IncidenceSparsityTest, HrtHasExactlyThreeNnzPerRow) {
  Rng rng(static_cast<std::uint64_t>(GetParam() + 100));
  const auto batch = random_batch(50, 30, 6, rng);
  const Csr a = build_hrt_incidence_csr(batch, 30, 6);
  for (index_t i = 0; i < a.rows; ++i) EXPECT_EQ(a.row_nnz(i), 3);
}

TEST_P(IncidenceSparsityTest, CsrAndCooBuildersAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam() + 200));
  const auto batch = random_batch(40, 25, 5, rng);
  EXPECT_LT(max_abs_diff(to_dense(build_ht_incidence(batch, 25)),
                         to_dense(build_ht_incidence_csr(batch, 25))),
            1e-7f);
  EXPECT_LT(max_abs_diff(to_dense(build_hrt_incidence(batch, 25, 5)),
                         to_dense(build_hrt_incidence_csr(batch, 25, 5))),
            1e-7f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncidenceSparsityTest,
                         ::testing::Range(0, 8));

TEST(Incidence, SelfLoopKeepsBothCoefficients) {
  // head == tail: the +1 and −1 coexist so A·E correctly yields zero.
  std::vector<Triplet> batch = {{3, 1, 3}};
  const Csr a = build_ht_incidence_csr(batch, 8);
  EXPECT_EQ(a.row_nnz(0), 2);
  const Matrix d = to_dense(a);
  EXPECT_FLOAT_EQ(d.at(0, 3), 0.0f);  // coefficients cancel in dense view
}

TEST(Incidence, OutOfRangeEntityThrows) {
  std::vector<Triplet> batch = {{9, 0, 1}};
  EXPECT_THROW(build_ht_incidence_csr(batch, 5), Error);
  EXPECT_THROW(build_hrt_incidence_csr(batch, 5, 3), Error);
}

TEST(Incidence, OutOfRangeRelationThrows) {
  std::vector<Triplet> batch = {{0, 7, 1}};
  EXPECT_THROW(build_hrt_incidence_csr(batch, 5, 3), Error);
}

TEST(Incidence, EmptyBatchYieldsEmptyMatrix) {
  std::vector<Triplet> batch;
  const Csr a = build_ht_incidence_csr(batch, 5);
  EXPECT_EQ(a.rows, 0);
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a.row_ptr.size(), 1u);
}

TEST(Incidence, RelationColumnsOffsetByEntityCount) {
  std::vector<Triplet> batch = {{0, 0, 1}, {1, 4, 0}};
  const Csr a = build_hrt_incidence_csr(batch, 10, 5);
  // Row 1's relation entry must land at column 10 + 4.
  bool found = false;
  for (index_t k = a.row_ptr[1]; k < a.row_ptr[2]; ++k) {
    if (a.col_idx[static_cast<std::size_t>(k)] == 14) {
      EXPECT_FLOAT_EQ(a.values[static_cast<std::size_t>(k)], 1.0f);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// touched_entity_ids / touched_relation_ids against the sort + unique
// definition they replaced.
std::vector<index_t> sorted_unique_ref(std::vector<index_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void expect_touched_match(std::span<const Triplet> a,
                          std::span<const Triplet> b) {
  std::vector<index_t> ents, rels;
  for (auto span : {a, b}) {
    for (const Triplet& t : span) {
      ents.push_back(t.head);
      ents.push_back(t.tail);
      rels.push_back(t.relation);
    }
  }
  EXPECT_EQ(touched_entity_ids(a, b), sorted_unique_ref(ents));
  EXPECT_EQ(touched_relation_ids(a, b), sorted_unique_ref(rels));
}

TEST(TouchedIds, EmptySpans) {
  const std::vector<Triplet> none;
  EXPECT_TRUE(touched_entity_ids(none, none).empty());
  EXPECT_TRUE(touched_relation_ids(none, none).empty());
  const std::vector<Triplet> one = {{3, 1, 2}};
  expect_touched_match(one, none);
  expect_touched_match(none, one);
}

TEST(TouchedIds, AllDuplicates) {
  const std::vector<Triplet> same(500, Triplet{7, 4, 7});
  expect_touched_match(same, same);
  EXPECT_EQ(touched_entity_ids(same, same), std::vector<index_t>{7});
  EXPECT_EQ(touched_relation_ids(same, same), std::vector<index_t>{4});
}

TEST(TouchedIds, WordBoundariesAndMaxId) {
  // Ids on both sides of every 64-bit word edge, and the vocabulary's last
  // id in a vocabulary that is not a multiple of 64.
  const index_t n = 14951;
  std::vector<Triplet> a, b;
  for (index_t id : {index_t{0}, index_t{63}, index_t{64}, index_t{127},
                     index_t{128}, n - 65, n - 64, n - 1})
    a.push_back({id, id % 5, n - 1 - id});
  b.push_back({n - 1, 0, n - 1});
  expect_touched_match(a, b);
  EXPECT_EQ(touched_entity_ids(a, b).back(), n - 1);
}

TEST(TouchedIds, RandomBatchesWithTiledNegatives) {
  Rng rng(17);
  for (index_t m : {1, 31, 4096}) {
    const auto pos = random_batch(m, 1000, 37, rng);
    // k = 3 tiled negatives: the positives repeated k times, each copy with
    // one side corrupted (the trainer's staged repetition-major layout).
    std::vector<Triplet> neg;
    for (int rep = 0; rep < 3; ++rep) {
      for (Triplet t : pos) {
        (rep % 2 == 0 ? t.head : t.tail) =
            static_cast<std::int64_t>(rng.next_below(1000));
        neg.push_back(t);
      }
    }
    std::vector<Triplet> tiled_pos;
    for (int rep = 0; rep < 3; ++rep)
      tiled_pos.insert(tiled_pos.end(), pos.begin(), pos.end());
    expect_touched_match(tiled_pos, neg);
  }
}

TEST(TouchedIds, NegativeIdThrows) {
  const std::vector<Triplet> bad = {{-1, 0, 2}};
  EXPECT_THROW(touched_entity_ids(bad, {}), Error);
}

}  // namespace
}  // namespace sptx
