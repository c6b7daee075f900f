// Unit and property tests for the statistics toolkit the inference engine
// builds on: descriptive stats, 1-D clustering, correlation, and the
// negative-binomial size estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "common/rng.h"
#include "stats/cluster.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/estimators.h"

namespace tango::stats {
namespace {

TEST(Descriptive, MeanVarianceStd) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Descriptive, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  const std::vector<double> one{42};
  EXPECT_DOUBLE_EQ(mean(one), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 99), 42.0);
}

TEST(Descriptive, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(Descriptive, SummaryFields) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(GapClusters, SingleTightCluster) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(1.0 + 0.001 * i);
  const auto cs = gap_clusters(xs);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].count, 50u);
}

TEST(GapClusters, ThreeLatencyBands) {
  // Fast ~0.4ms, slow ~3.7ms, control ~8ms with jitter — Fig 2 style.
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.normal(0.4, 0.02));
  for (int i = 0; i < 80; ++i) xs.push_back(rng.normal(3.7, 0.15));
  for (int i = 0; i < 60; ++i) xs.push_back(rng.normal(8.0, 0.3));
  const auto cs = gap_clusters(xs);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0].count, 100u);
  EXPECT_EQ(cs[1].count, 80u);
  EXPECT_EQ(cs[2].count, 60u);
  EXPECT_NEAR(cs[0].center, 0.4, 0.05);
  EXPECT_NEAR(cs[2].center, 8.0, 0.3);
}

TEST(GapClusters, ClustersSortedAscending) {
  const std::vector<double> xs{9, 9.1, 1, 1.1, 5, 5.1};
  const auto cs = gap_clusters(xs);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_LT(cs[0].center, cs[1].center);
  EXPECT_LT(cs[1].center, cs[2].center);
}

TEST(Kmeans1d, RecoversWellSeparatedCenters) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(1.0, 0.05));
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(10.0, 0.3));
  const auto cs = kmeans_1d(xs, 2);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_NEAR(cs[0].center, 1.0, 0.1);
  EXPECT_NEAR(cs[1].center, 10.0, 0.3);
}

TEST(Kmeans1d, KLargerThanDataIsClamped) {
  const std::vector<double> xs{1, 2};
  const auto cs = kmeans_1d(xs, 10);
  EXPECT_LE(cs.size(), 2u);
}

TEST(Classify, ContainmentThenNearest) {
  std::vector<Cluster> cs{{0.9, 1.1, 1.0, 10}, {7.5, 8.5, 8.0, 10}};
  EXPECT_EQ(classify(cs, 1.05), 0u);
  EXPECT_EQ(classify(cs, 8.2), 1u);
  EXPECT_EQ(classify(cs, 4.9), 1u);  // nearest center
  EXPECT_EQ(classify(cs, 2.0), 0u);
}

TEST(Pearson, PerfectCorrelations) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> up{10, 20, 30, 40};
  const std::vector<double> down{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesYieldsZero) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(PointBiserial, TopHalfMembership) {
  // Attribute ranks 0..99; cached = rank >= 50. Strong positive correlation.
  std::vector<double> xs(100);
  std::vector<bool> cached(100);
  for (int i = 0; i < 100; ++i) {
    xs[i] = i;
    cached[i] = i >= 50;
  }
  EXPECT_GT(point_biserial(xs, cached), 0.8);
  // Random membership ~ 0.
  Rng rng(4);
  for (int i = 0; i < 100; ++i) cached[i] = rng.chance(0.5);
  EXPECT_LT(std::abs(point_biserial(xs, cached)), 0.3);
}

TEST(NegBinomialMle, ClosedForm) {
  // k=2 trials with runs {3, 5}: p_hat = 8 / (2 + 8) = 0.8.
  const std::vector<std::size_t> runs{3, 5};
  EXPECT_DOUBLE_EQ(negative_binomial_p_mle(runs), 0.8);
  EXPECT_DOUBLE_EQ(estimate_layer_size(100, runs), 80.0);
}

TEST(NegBinomialMle, AllMissesGivesZero) {
  const std::vector<std::size_t> runs{0, 0, 0};
  EXPECT_DOUBLE_EQ(negative_binomial_p_mle(runs), 0.0);
}

// Property sweep: simulate the actual sampling process for several hit
// probabilities and check the estimator recovers p within a few percent.
class NbRecovery : public ::testing::TestWithParam<double> {};

TEST_P(NbRecovery, RecoversHitProbability) {
  const double p = GetParam();
  std::mt19937_64 gen(1234);
  std::bernoulli_distribution hit(p);
  std::vector<std::size_t> runs;
  for (int trial = 0; trial < 4000; ++trial) {
    std::size_t x = 0;
    while (hit(gen)) ++x;
    runs.push_back(x);
  }
  EXPECT_NEAR(negative_binomial_p_mle(runs), p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(HitProbabilities, NbRecovery,
                         ::testing::Values(0.1, 0.25, 0.5, 0.66, 0.8, 0.9));

}  // namespace
}  // namespace tango::stats
