#include <gtest/gtest.h>

#include <algorithm>

#include "common/clock.h"
#include "common/rng.h"
#include "doc/builder.h"
#include "doc/tuning.h"
#include "net/network.h"
#include "oracles/oracles.h"
#include "prefetch/cache.h"
#include "prefetch/predictor.h"
#include "prefetch/session.h"

namespace mmconf::prefetch {
namespace {

using cpnet::Assignment;
using doc::MakeMedicalRecordDocument;
using doc::MultimediaDocument;
using oracles::RankCandidatesBaseline;

class PredictorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    document_ = std::make_unique<MultimediaDocument>(
        MakeMedicalRecordDocument().value());
    predictor_ = std::make_unique<PrefetchPredictor>(document_.get());
  }
  std::unique_ptr<MultimediaDocument> document_;
  std::unique_ptr<PrefetchPredictor> predictor_;
};

TEST_F(PredictorTest, RequiresFullConfiguration) {
  Assignment partial(document_->num_variables());
  EXPECT_TRUE(
      predictor_->RankCandidates(partial).status().IsInvalidArgument());
}

TEST_F(PredictorTest, RanksXrayHighWhenCtShown) {
  // Default: CT flat, XRay hidden. The likeliest "next" surprise is the
  // viewer hiding/changing CT, which surfaces the XRay — so the XRay
  // must rank among the candidates.
  Assignment config = document_->DefaultPresentation().value();
  std::vector<PrefetchCandidate> candidates =
      predictor_->RankCandidates(config).value();
  ASSERT_FALSE(candidates.empty());
  bool has_xray = false;
  for (const PrefetchCandidate& candidate : candidates) {
    if (candidate.component == "XRay" &&
        candidate.presentation == "flat") {
      has_xray = true;
    }
    EXPECT_GT(candidate.score, 0.0);
    EXPECT_GT(candidate.cost_bytes, 0u);
  }
  EXPECT_TRUE(has_xray);
}

TEST_F(PredictorTest, ScoresAreSortedDescending) {
  Assignment config = document_->DefaultPresentation().value();
  std::vector<PrefetchCandidate> candidates =
      predictor_->RankCandidates(config).value();
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].score, candidates[i].score);
  }
}

TEST_F(PredictorTest, CurrentlyVisibleContentNotCandidates) {
  Assignment config = document_->DefaultPresentation().value();
  std::vector<PrefetchCandidate> candidates =
      predictor_->RankCandidates(config).value();
  // CT is already shown flat; prefetching it again is pointless.
  for (const PrefetchCandidate& candidate : candidates) {
    EXPECT_FALSE(candidate.component == "CT" &&
                 candidate.presentation == "flat");
  }
}

/// The two implementations must agree to the byte: same candidates, same
/// order, bit-identical scores (the dense accumulator adds weights in
/// the same sequence as the baseline's map).
void ExpectSameRanking(const std::vector<PrefetchCandidate>& fast,
                       const std::vector<PrefetchCandidate>& baseline) {
  ASSERT_EQ(fast.size(), baseline.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].component, baseline[i].component) << "rank " << i;
    EXPECT_EQ(fast[i].presentation, baseline[i].presentation) << "rank " << i;
    EXPECT_EQ(fast[i].score, baseline[i].score) << "rank " << i;
    EXPECT_EQ(fast[i].cost_bytes, baseline[i].cost_bytes) << "rank " << i;
  }
}

TEST_F(PredictorTest, FastRankingMatchesBaselineOnMedicalRecord) {
  Assignment config = document_->DefaultPresentation().value();
  ExpectSameRanking(predictor_->RankCandidates(config).value(),
                    RankCandidatesBaseline(*document_, config).value());
  // And on a reconfigured state (CT hidden surfaces the XRay).
  Assignment next =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  ExpectSameRanking(predictor_->RankCandidates(next).value(),
                    RankCandidatesBaseline(*document_, next).value());
}

TEST_F(PredictorTest, FastRankingMatchesBaselineWithExtensionVariables) {
  // A tuning variable is a CP-net variable but not a component: the
  // configuration is longer than the component list.
  ASSERT_TRUE(doc::AddBandwidthTuning(*document_, "net-tuning").ok());
  Assignment config = document_->DefaultPresentation().value();
  ASSERT_GT(document_->num_variables(), document_->num_components());
  ExpectSameRanking(predictor_->RankCandidates(config).value(),
                    RankCandidatesBaseline(*document_, config).value());
}

TEST(PredictorEquivalenceTest, FastMatchesBaselineOnRandomDocuments) {
  Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    MultimediaDocument document =
        doc::MakeRandomDocument(/*num_groups=*/3, /*num_leaves=*/8, rng)
            .value();
    PrefetchPredictor predictor(&document);
    Assignment config = document.DefaultPresentation().value();
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameRanking(predictor.RankCandidates(config).value(),
                      RankCandidatesBaseline(document, config).value());
  }
}

TEST(PlanTest, ZeroCostCandidatesAreSkipped) {
  // A zero-cost candidate delivers nothing; with the old behavior it
  // slid into every plan and made tied-budget plans order-dependent.
  std::vector<PrefetchCandidate> ranked = {
      {"free", "icon", 5.0, 0},
      {"a", "flat", 3.0, 1000},
  };
  std::vector<PrefetchCandidate> plan = PlanWithinBudget(ranked, 1000);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].component, "a");
  EXPECT_TRUE(PlanWithinBudget({{"free", "icon", 5.0, 0}}, 0).empty());
}

TEST(PlanTest, RespectsBudget) {
  std::vector<PrefetchCandidate> ranked = {
      {"a", "flat", 3.0, 1000},
      {"b", "flat", 2.0, 800},
      {"c", "flat", 1.0, 400},
  };
  std::vector<PrefetchCandidate> plan = PlanWithinBudget(ranked, 1500);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].component, "a");
  EXPECT_EQ(plan[1].component, "c");  // b skipped: does not fit after a
  EXPECT_TRUE(PlanWithinBudget(ranked, 0).empty());
}

TEST(CacheTest, NonePolicyAlwaysMisses) {
  ClientCache cache(1 << 20, CachePolicy::kNone);
  EXPECT_TRUE(cache.Insert("x", 100, 1.0).ok());
  EXPECT_FALSE(cache.Lookup("x"));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(CacheTest, HitAfterInsert) {
  ClientCache cache(1000, CachePolicy::kLru);
  ASSERT_TRUE(cache.Insert("x", 100, 1.0).ok());
  EXPECT_TRUE(cache.Lookup("x"));
  EXPECT_FALSE(cache.Lookup("y"));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

TEST(CacheTest, OversizedEntryRejected) {
  ClientCache cache(100, CachePolicy::kLru);
  EXPECT_TRUE(cache.Insert("big", 101, 1.0).IsResourceExhausted());
  EXPECT_TRUE(cache.Insert("fits", 100, 1.0).ok());
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed) {
  ClientCache cache(300, CachePolicy::kLru);
  ASSERT_TRUE(cache.Insert("a", 100, 1.0).ok());
  ASSERT_TRUE(cache.Insert("b", 100, 1.0).ok());
  ASSERT_TRUE(cache.Insert("c", 100, 1.0).ok());
  EXPECT_TRUE(cache.Lookup("a"));  // refresh a
  ASSERT_TRUE(cache.Insert("d", 100, 1.0).ok());
  EXPECT_FALSE(cache.Contains("b"));  // b was the coldest
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_TRUE(cache.Contains("d"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, PreferenceEvictsLowestScore) {
  ClientCache cache(300, CachePolicy::kPreference);
  ASSERT_TRUE(cache.Insert("high", 100, 9.0).ok());
  ASSERT_TRUE(cache.Insert("low", 100, 1.0).ok());
  ASSERT_TRUE(cache.Insert("mid", 100, 5.0).ok());
  ASSERT_TRUE(cache.Insert("new", 100, 4.0).ok());
  EXPECT_FALSE(cache.Contains("low"));
  EXPECT_TRUE(cache.Contains("high"));
  EXPECT_TRUE(cache.Contains("mid"));
  EXPECT_TRUE(cache.Contains("new"));
}

TEST(CacheTest, PreferenceBreaksScoreTiesByLruRecency) {
  ClientCache cache(300, CachePolicy::kPreference);
  // All scores tie; recency must decide, not map key order.
  ASSERT_TRUE(cache.Insert("a", 100, 2.0).ok());
  ASSERT_TRUE(cache.Insert("b", 100, 2.0).ok());
  ASSERT_TRUE(cache.Insert("c", 100, 2.0).ok());
  EXPECT_TRUE(cache.Lookup("a"));  // refresh a; b is now coldest
  ASSERT_TRUE(cache.Insert("d", 100, 2.0).ok());
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_TRUE(cache.Contains("d"));
  // A genuinely lower score still wins over recency.
  ASSERT_TRUE(cache.Insert("worse", 100, 1.0).ok());
  EXPECT_FALSE(cache.Contains("c"));  // c was coldest among the ties
  ASSERT_TRUE(cache.Insert("e", 100, 2.0).ok());
  EXPECT_FALSE(cache.Contains("worse"));  // lowest score goes first
}

TEST(CacheTest, ReinsertUpdatesInPlace) {
  ClientCache cache(300, CachePolicy::kPreference);
  ASSERT_TRUE(cache.Insert("x", 100, 1.0).ok());
  ASSERT_TRUE(cache.Insert("x", 200, 7.0).ok());
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), 200u);
}

TEST(CacheTest, KeyFormat) {
  EXPECT_EQ(CacheKey("CT", "flat"), "CT/flat");
}

TEST_F(PredictorTest, PrefetchingRaisesHitRate) {
  // The A2 ablation in miniature: prefetch the predictor's plan, then
  // simulate the viewer's likely next choice; the prefetched cache must
  // hit where an empty cache misses.
  Assignment config = document_->DefaultPresentation().value();
  std::vector<PrefetchCandidate> candidates =
      predictor_->RankCandidates(config).value();
  ClientCache cold(1 << 20, CachePolicy::kPreference);
  ClientCache warm(1 << 20, CachePolicy::kPreference);
  for (const PrefetchCandidate& candidate :
       PlanWithinBudget(candidates, 1 << 20)) {
    ASSERT_TRUE(warm.Insert(
        CacheKey(candidate.component, candidate.presentation),
        candidate.cost_bytes, candidate.score).ok());
  }
  // Viewer hides the CT; the new configuration surfaces the XRay flat.
  Assignment next =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  int cold_hits = 0, warm_hits = 0;
  for (size_t i = 0; i < document_->num_components(); ++i) {
    const doc::MultimediaComponent* component =
        document_->components()[i];
    if (component->IsComposite()) continue;
    if (!document_->IsVisible(next, component->name()).value()) continue;
    doc::MMPresentation presentation =
        document_->PresentationFor(next, component->name()).value();
    std::string key = CacheKey(component->name(), presentation.name);
    if (cold.Lookup(key)) ++cold_hits;
    if (warm.Lookup(key)) ++warm_hits;
  }
  EXPECT_EQ(cold_hits, 0);
  EXPECT_GT(warm_hits, 0);
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    document_ = std::make_unique<MultimediaDocument>(
        MakeMedicalRecordDocument().value());
    network_ = std::make_unique<net::Network>(&clock_);
    server_ = network_->AddNode("server");
    client_ = network_->AddNode("client");
    ASSERT_TRUE(network_->SetLink(server_, client_, {256e3, 10000}).ok());
  }

  PrefetchSession MakeSession(CachePolicy policy) {
    PrefetchSession::Options options;
    options.buffer_bytes = 1 << 20;
    options.policy = policy;
    return PrefetchSession(document_.get(), network_.get(), server_,
                           client_, options);
  }

  Clock clock_;
  std::unique_ptr<MultimediaDocument> document_;
  std::unique_ptr<net::Network> network_;
  net::NodeId server_ = 0, client_ = 0;
};

TEST_F(SessionTest, FirstConfigurationFetchesEverythingVisible) {
  PrefetchSession session = MakeSession(CachePolicy::kLru);
  Assignment config = document_->DefaultPresentation().value();
  MicrosT delivered = session.OnConfiguration(config).value();
  EXPECT_GT(delivered, 0);
  EXPECT_GT(session.bytes_fetched_on_demand(), 0u);
  EXPECT_EQ(session.bytes_prefetched(), 0u);  // LRU never prefetches
  // Re-applying the same configuration transfers nothing new.
  size_t before = session.bytes_fetched_on_demand();
  session.OnConfiguration(config).value();
  EXPECT_EQ(session.bytes_fetched_on_demand(), before);
}

TEST_F(SessionTest, PreferencePrefetchTurnsNextChoiceIntoHits) {
  PrefetchSession warm = MakeSession(CachePolicy::kPreference);
  PrefetchSession cold = MakeSession(CachePolicy::kLru);
  Assignment initial = document_->DefaultPresentation().value();
  warm.OnConfiguration(initial).value();
  cold.OnConfiguration(initial).value();
  EXPECT_GT(warm.bytes_prefetched(), 0u);

  // The viewer hides the CT: the XRay (prefetched by the warm session)
  // becomes visible.
  Assignment next =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  size_t warm_demand_before = warm.bytes_fetched_on_demand();
  size_t cold_demand_before = cold.bytes_fetched_on_demand();
  warm.OnConfiguration(next).value();
  cold.OnConfiguration(next).value();
  size_t warm_new = warm.bytes_fetched_on_demand() - warm_demand_before;
  size_t cold_new = cold.bytes_fetched_on_demand() - cold_demand_before;
  EXPECT_LT(warm_new, cold_new);
  EXPECT_GT(warm.stats().hits, 0u);
}

TEST_F(SessionTest, RejectsPartialConfiguration) {
  PrefetchSession session = MakeSession(CachePolicy::kLru);
  Assignment partial(document_->num_variables());
  EXPECT_TRUE(
      session.OnConfiguration(partial).status().IsInvalidArgument());
}

TEST_F(SessionTest, NoneCachePolicyAlwaysRefetches) {
  PrefetchSession session = MakeSession(CachePolicy::kNone);
  Assignment config = document_->DefaultPresentation().value();
  session.OnConfiguration(config).value();
  size_t first = session.bytes_fetched_on_demand();
  // Hide + restore: the restored view refetches from scratch.
  Assignment hidden =
      document_->ReconfigPresentation({{"CT", "hidden"}}).value();
  session.OnConfiguration(hidden).value();
  session.OnConfiguration(config).value();
  EXPECT_GT(session.bytes_fetched_on_demand(), first);
  EXPECT_EQ(session.stats().hits, 0u);
}

}  // namespace
}  // namespace mmconf::prefetch
