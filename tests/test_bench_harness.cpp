// The bench harness's PAIRUP_* environment knobs (bench/harness.hpp) parse
// strictly: a malformed value fails with an error naming the variable
// instead of silently running a prefix of it (atoll reads "1O" as 1) or a
// wrapped seed (atoll on "-1").
#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace tsc::bench {
namespace {

// Sets one variable for the test's scope (each discovered test runs in its
// own process, so this cannot leak into other tests).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

void expect_rejected(const char* name, const char* value) {
  ScopedEnv env(name, value);
  try {
    load_config(HarnessConfig{});
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << "error does not name the variable: " << e.what();
  }
}

TEST(BenchHarness, MalformedKnobsFailNamingTheVariable) {
  expect_rejected("PAIRUP_EPISODES", "1O");
  expect_rejected("PAIRUP_EPISODES", "");
  expect_rejected("PAIRUP_SEED", "-1");
  expect_rejected("PAIRUP_NUM_ENVS", "2 ");
  expect_rejected("PAIRUP_NUM_UPDATE_SHARDS", "four");
  expect_rejected("PAIRUP_TIME_SCALE", "0.5x");
  expect_rejected("PAIRUP_EPISODE_SECONDS", "nan");
  expect_rejected("PAIRUP_UPDATE_PATH", "fast");
}

TEST(BenchHarness, WellFormedKnobsOverrideDefaults) {
  HarnessConfig defaults;
  defaults.episodes = 12;
  {
    const HarnessConfig unset = load_config(defaults);
    EXPECT_EQ(unset.episodes, 12u);
    EXPECT_EQ(unset.seed, 1u);
  }
  ScopedEnv episodes("PAIRUP_EPISODES", "10");
  ScopedEnv seed("PAIRUP_SEED", "18446744073709551615");
  ScopedEnv scale("PAIRUP_TIME_SCALE", "0.25");
  ScopedEnv envs("PAIRUP_NUM_ENVS", "0");
  ScopedEnv path("PAIRUP_UPDATE_PATH", "tape");
  const HarnessConfig config = load_config(defaults);
  EXPECT_EQ(config.episodes, 10u);
  EXPECT_EQ(config.seed, 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(config.time_scale, 0.25);
  EXPECT_EQ(config.num_envs, 1u);  // clamped to at least one replica
  EXPECT_EQ(config.update_path, core::UpdatePath::kTape);
}

}  // namespace
}  // namespace tsc::bench
