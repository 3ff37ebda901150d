// Fixed-seed fuzz smoke sweep, one test per scenario (seeds [0, 64) each), run in tier-1 CI
// under the `fuzz-smoke` ctest label. The sweep is deterministic: a red test names the scenario,
// and the failing seed is in the assertion message — replay it with
//   tools/dfil_fuzz --scenario <name> --seed <seed> --log
// The nightly-depth sweep is the `fuzz_nightly` target (512 seeds per scenario).
#include <gtest/gtest.h>

#include <string>

#include "src/apps/fuzz_driver.h"

namespace dfil::apps {
namespace {

constexpr uint64_t kSmokeSeeds = 64;

class FuzzSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzSmokeTest, SweepIsClean) {
  // A failing case leaves FLIGHT_<scenario>_seed<N>.json next to the test binary — the flight
  // recorder's last wait events and injections, rendered with `dfil flight` (CI uploads
  // them when this lane goes red).
  FuzzOptions opts;
  opts.flight_dump_on_failure = true;
  for (uint64_t seed = 0; seed < kSmokeSeeds; ++seed) {
    const FuzzResult r = RunFuzzCase(GetParam(), seed, opts);
    EXPECT_TRUE(r.ok()) << r.Summary()
                        << (r.flight_path.empty() ? "" : " — flight dump: " + r.flight_path);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FuzzSmokeTest, ::testing::ValuesIn(FuzzScenarios()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace dfil::apps
