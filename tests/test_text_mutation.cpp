// test_text_mutation.cpp — seeded mutants of the exact texts that cross a
// process boundary.
//
// A boundary parser either accepts input that re-serializes to the same
// bytes or throws std::invalid_argument.  Each mutant starts from a valid
// text (ScenarioSpec::Describe, FleetPartial::Serialize, EncodeFleetJob,
// TraceShardFile::Serialize) and applies one to three edits: a byte flip,
// a truncation, a deletion, a swap of one token for an edge token (signs,
// leading zeros, 2^64, other spellings of a double, whitespace), or a
// doubled separator.  Every mutant is rebuilt from its seed alone, so a
// failure names the seed that reproduces it.

#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fleet/coord.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/scenario.hpp"
#include "fleet/shard_plan.hpp"
#include "trace/trace_file.hpp"

namespace shep {
namespace {

constexpr int kMutantsPerParser = 2000;

/// Tokens a valid text never holds in that spelling, or holds elsewhere.
const std::vector<std::string>& EdgeTokens() {
  static const std::vector<std::string> kTokens = {
      "-1", "00", "+1", "0", "1", "007", "18446744073709551615",
      "18446744073709551616", "4294967296", "1.5", "1e999", "0X1P+0",
      "0x5.77p+10", "0x1p-0", "0x1.47ae147eae147bp-6", "+0x1p+0",
      "infinity", "nan", "inf", "-0x0p+0", "", " ", "\t"};
  return kTokens;
}

/// Replaces the whitespace-delimited token covering (or following) `pos`.
void SwapToken(std::string& text, std::size_t pos, const std::string& edge) {
  static constexpr const char* kSpace = " \n";
  std::size_t begin = text.find_first_not_of(kSpace, pos);
  if (begin == std::string::npos) return;
  const std::size_t before = text.find_last_of(kSpace, begin);
  begin = before == std::string::npos ? 0 : before + 1;
  const std::size_t end = text.find_first_of(kSpace, begin);
  text.replace(begin, (end == std::string::npos ? text.size() : end) - begin,
               edge);
}

/// The mutant of `valid` drawn from `seed`.
std::string Mutate(const std::string& valid, std::uint64_t seed) {
  Rng rng(seed);
  std::string text = valid;
  const std::uint64_t edits = 1 + rng.NextBelow(3);
  for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng.NextBelow(text.size());
    switch (rng.NextBelow(5)) {
      case 0:
        text[pos] = static_cast<char>(text[pos] ^ (1 << rng.NextBelow(8)));
        break;
      case 1:
        text.resize(pos);
        break;
      case 2:
        text.erase(pos, 1 + rng.NextBelow(8));
        break;
      case 3:
        SwapToken(text, pos, EdgeTokens()[rng.NextBelow(EdgeTokens().size())]);
        break;
      default: {
        // A whitespace run: the separator at or after `pos` doubled.
        const std::size_t gap = text.find_first_of(" \n", pos);
        if (gap != std::string::npos) text.insert(gap, 1, text[gap]);
        break;
      }
    }
  }
  return text;
}

/// Runs kMutantsPerParser mutants of `valid` through `roundtrip` (parse,
/// then serialize what was parsed).  A mutant that reads back as other
/// bytes, or throws anything but std::invalid_argument, fails with its
/// seed.
void ExpectEveryMutantRoundTripsOrThrows(
    const std::string& valid, std::uint64_t base_seed,
    const std::function<std::string(const std::string&)>& roundtrip) {
  ASSERT_EQ(roundtrip(valid), valid);
  int rejected = 0;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const std::string mutant = Mutate(valid, seed);
    try {
      const std::string back = roundtrip(mutant);
      EXPECT_EQ(back, mutant) << "seed " << seed << " read back as other bytes";
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << " threw a non-invalid_argument: "
                    << e.what();
    }
  }
  // The edits reach the parser: most mutants are malformed.
  EXPECT_GT(rejected, kMutantsPerParser / 2);
}

/// One faulted, costed cell with list-valued predictor parameters, so the
/// texts carry every token class: words, counts, flags, doubles and
/// sparse histogram entries.
ScenarioSpec MutationSpec() {
  ScenarioSpec spec;
  spec.name = "mutation";
  spec.sites = {"HSU"};
  PredictorSpec fixed;
  fixed.kind = PredictorKind::kWcmaFixed;
  fixed.wcma.days = 6;
  PredictorSpec adaptive;
  adaptive.kind = PredictorKind::kAdaptiveWcma;
  adaptive.adaptive.alphas = {0.25, 0.5};
  adaptive.adaptive.ks = {1, 3};
  adaptive.adaptive.days = 5;
  spec.predictors = {fixed, adaptive};
  spec.storage_tiers_j = {150.0};
  spec.nodes_per_cell = 2;
  spec.days = 16;
  spec.slots_per_day = 48;
  spec.seed = 17;
  spec.node.warmup_days = 8;
  spec.faults.outage_rate_per_day = 0.3;
  spec.faults.outage_mean_slots = 6.0;
  spec.faults.recovery_window_slots = 12;
  return spec;
}

TEST(TextMutation, ScenarioSpecMutantsRoundTripOrThrow) {
  ExpectEveryMutantRoundTripsOrThrows(
      MutationSpec().Describe(), 0x5BEC0000u,
      [](const std::string& text) { return ParseScenarioSpec(text).Describe(); });
}

TEST(TextMutation, FleetPartialMutantsRoundTripOrThrow) {
  const ShardPlan plan = BuildShardPlan(MutationSpec(), 2);
  FleetPartial partial = RunFleetShards(plan, {0});
  partial.synth_seconds = 0.5;  // a run measures these; pin them.
  partial.sim_seconds = 1.25;
  ExpectEveryMutantRoundTripsOrThrows(
      partial.Serialize(), 0x9A87000u,
      [](const std::string& text) { return FleetPartial::Parse(text).Serialize(); });
}

// A job is read from the worker's stdin, which goes on with commands, so
// a mutant reads back as the job's encoding followed by what it left
// unread.
TEST(TextMutation, FleetJobMutantsRoundTripOrThrow) {
  FleetWorkerJob job;
  job.spec = MutationSpec();
  job.fingerprint = 0xFEEDFACECAFEBEEFull;
  job.shard_size = 3;
  job.heartbeat_ms = 250;
  job.trace_dir = "/tmp/trace dir";
  ExpectEveryMutantRoundTripsOrThrows(
      EncodeFleetJob(job), 0x70B0000u, [](const std::string& text) {
        std::istringstream in(text);
        const FleetWorkerJob parsed = ParseFleetJob(in);
        return EncodeFleetJob(parsed) +
               std::string(std::istreambuf_iterator<char>(in), {});
      });
}

TEST(TextMutation, TraceShardFileMutantsRoundTripOrThrow) {
  TraceShardFile file;
  file.scenario_name = "mutation";
  file.fingerprint = 0xFEEDFACECAFEBEEFull;
  file.shard = 7;
  file.slots_per_day = 48;
  file.days = 16;
  file.cells = {{4, "HSU", "WCMA", 1500.0}, {5, "PFCI", "WCMA#1", 6000.0}};
  for (std::uint32_t i = 0; i < 3; ++i) {
    TraceRecord record;
    record.node = 12 + i;
    record.cell = 4 + i % 2;
    record.slot = 100 + 37 * i;
    record.trigger_mask = 1u << i;
    record.violated = i == 1;
    record.soc = 0.125 * i;
    record.predicted_w = 0.3 + i;
    record.actual_w = -0.0;
    record.duty = 1.0 / (3.0 + i);
    file.records.push_back(record);
  }
  TraceDayRecord day;
  day.node = 13;
  day.cell = 5;
  day.day = 2;
  day.slots = 47;
  day.violations = 3;
  day.min_soc = 0.0625;
  day.mean_duty = 0.4;
  day.max_abs_error_w = 1e-3;
  file.day_records.push_back(day);
  std::ostringstream os;
  file.Serialize(os);
  ExpectEveryMutantRoundTripsOrThrows(
      os.str(), 0x75A0000u, [](const std::string& text) {
        std::istringstream in(text);
        std::ostringstream back;
        TraceShardFile::Parse(in).Serialize(back);
        return back.str();
      });
}

}  // namespace
}  // namespace shep
