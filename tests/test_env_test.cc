// The test harness (test_env.h): the RODIN_* grammar, and proof that the
// configuration this binary was launched with reached the product. CI runs
// the suite under RODIN_SPILL_BUDGET=1, RODIN_FAULTS=1, RODIN_FEEDBACK=1 /
// 0 and RODIN_PLAN_CACHE=0; if the harness were not installed, every leg
// would silently test the default configuration and only these tests
// would notice.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "api/session.h"
#include "common/faults.h"
#include "datagen/music_gen.h"
#include "obs/metrics.h"
#include "test_env.h"

namespace rodin {
namespace {

const char kFig3Text[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.works.instruments.iname = "harpsichord" and j.gen >= 6
)";

GeneratedDb MakeDb() {
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

std::string Env(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

TEST(TestEnvTest, ParseEnvValueGrammar) {
  EXPECT_FALSE(test_env::ParseFaults("").enabled);
  EXPECT_FALSE(test_env::ParseFaults("0").enabled);

  const FaultConfig defaults = test_env::ParseFaults("1");
  EXPECT_TRUE(defaults.enabled);
  EXPECT_DOUBLE_EQ(defaults.page_fetch_fail, 0.01);
  EXPECT_DOUBLE_EQ(defaults.alloc_fail, 0.005);
  EXPECT_EQ(defaults.max_faults, 0u);
  EXPECT_EQ(defaults.force_deadline_stage, -1);
  EXPECT_EQ(defaults.force_deadline_fix_iter, -1);

  const FaultConfig custom = test_env::ParseFaults(
      "page_fetch=0.5,alloc=0.25,seed=7,max=3,stage=2,fix_iter=4");
  EXPECT_TRUE(custom.enabled);
  EXPECT_DOUBLE_EQ(custom.page_fetch_fail, 0.5);
  EXPECT_DOUBLE_EQ(custom.alloc_fail, 0.25);
  EXPECT_EQ(custom.seed, 7u);
  EXPECT_EQ(custom.max_faults, 3u);
  EXPECT_EQ(custom.force_deadline_stage, 2);
  EXPECT_EQ(custom.force_deadline_fix_iter, 4);

  EXPECT_TRUE(test_env::ParsePlanCache(nullptr));
  EXPECT_TRUE(test_env::ParsePlanCache("1"));
  EXPECT_TRUE(test_env::ParsePlanCache("on"));
  for (const char* off : {"0", "off", "OFF", "false"}) {
    EXPECT_FALSE(test_env::ParsePlanCache(off)) << off;
  }

  EXPECT_FALSE(test_env::ParseFeedback(nullptr));
  EXPECT_FALSE(test_env::ParseFeedback(""));
  EXPECT_FALSE(test_env::ParseFeedback("0"));
  EXPECT_TRUE(test_env::ParseFeedback("1"));

  EXPECT_EQ(test_env::ParseSpillBudget(nullptr), 0u);
  EXPECT_EQ(test_env::ParseSpillBudget(""), 0u);
  EXPECT_EQ(test_env::ParseSpillBudget("1"), 1u);
}

// Each leg below checks product behaviour, not just the installed values:
// a harness the linker dropped would leave every one at its default.

TEST(TestEnvTest, FaultsLegReachesTheInjector) {
  const FaultConfig launched = test_env::ParseFaults(Env("RODIN_FAULTS"));
  const FaultConfig& live = FaultInjector::Global().config();
  EXPECT_EQ(FaultInjector::Global().enabled(), launched.enabled);
  EXPECT_EQ(live.seed, launched.seed);
  EXPECT_EQ(live.max_faults, launched.max_faults);
  EXPECT_DOUBLE_EQ(live.page_fetch_fail, launched.page_fetch_fail);
}

TEST(TestEnvTest, PlanCacheLegDecidesWhetherARepeatedRunHits) {
  const bool cache_on = test_env::ParsePlanCache(
      std::getenv("RODIN_PLAN_CACHE"));
  EXPECT_EQ(TestDefaults::Global().plan_cache, cache_on);
  GeneratedDb g = MakeDb();
  Session session(g.db.get());
  ASSERT_TRUE(session.Run(kFig3Text).ok());
  const QueryRun again = session.Run(kFig3Text);
  ASSERT_TRUE(again.ok()) << again.error();
  // An enabled injector bypasses the cache by design.
  EXPECT_EQ(again.plan_cached,
            cache_on && !FaultInjector::Global().enabled());
}

TEST(TestEnvTest, SpillLegForcesTheLedger) {
  const size_t pages =
      test_env::ParseSpillBudget(std::getenv("RODIN_SPILL_BUDGET"));
  EXPECT_EQ(TestDefaults::Global().spill_budget_pages, pages);
  GeneratedDb g = MakeDb();
  Session session(g.db.get());
  obs::Counter* spills =
      obs::MetricsRegistry::Global().GetCounter("rodin.spill.spills");
  const uint64_t before = spills->value();
  const QueryRun run = session.Run(kFig3Text);
  ASSERT_TRUE(run.ok()) << run.error();
  if (pages == 0) {
    EXPECT_EQ(spills->value(), before);
  } else if (pages == 1) {
    EXPECT_GT(spills->value(), before);
  }
}

TEST(TestEnvTest, FeedbackLegSetsTheInheritedDefault) {
  const bool feedback_on =
      test_env::ParseFeedback(std::getenv("RODIN_FEEDBACK"));
  EXPECT_EQ(TestDefaults::Global().feedback, feedback_on);
  GeneratedDb g = MakeDb();
  Session session(g.db.get());
  QueryOptions inherit;  // feedback.enabled left unset
  ASSERT_FALSE(inherit.feedback.enabled.has_value());
  const QueryRun run = session.Run(kFig3Text, inherit);
  ASSERT_TRUE(run.ok()) << run.error();
  // An enabled injector bypasses feedback by design.
  const bool learns = feedback_on && !FaultInjector::Global().enabled();
  EXPECT_EQ(session.feedback_registry().size() > 0, learns);
}

}  // namespace
}  // namespace rodin
