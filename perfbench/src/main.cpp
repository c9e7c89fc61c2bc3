// perfbench — binary behind perfbench/run.py.
//
//   perfbench reference WORKLOAD SEED [--tiny]
//       Serial stage-by-stage replay with spans off; prints the output
//       digest every repetition must match, the shape and the provenance.
//   perfbench rep WORKLOAD SEED [--tiny]
//       One cold, timed repetition (run.py starts a fresh process for each,
//       so peak RSS and the process-wide clear-sky memo are per campaign).
//   perfbench layers WORKLOAD SEED BUDGET_S SPANS_PATH [--tiny]
//       The per-layer pass; spans are written to SPANS_PATH.
//   perfbench selftest
//       Checks the helpers (median, digest, span log, JSON quoting).
//
// Each mode prints one JSON object on stdout.  Exit status: 0 on success,
// 1 on an error or a failed self-test, 2 on bad usage.
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.hpp"
#include "fleet/runner.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

std::string Provenance() {
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
  return Json()
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("bench_threads", BenchThreads())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("ndebug", kNdebug)
      .Bool("comparable", kNdebug)
      .Str("cold_campaign",
           "--trace 0: one fresh process per repetition; every set-up round "
           "and timed run starts from a cleared clear-sky memo")
      .str();
}

std::uint64_t ParseSeed(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("bad seed: " + text);
  return value;
}

int failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  std::cerr << "selftest FAILED: " << what << "\n";
  ++failures;
}

int SelfTest() {
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

  Expect(Fnv1a("") == 0xcbf29ce484222325ull, "FNV-1a of empty input");
  Expect(Fnv1a("a") == 0xaf63dc4c8601ec8cull, "FNV-1a of \"a\"");
  Expect(Fnv1a("b", Fnv1a("a")) == Fnv1a("ab"), "FNV-1a continues");
  Expect(Hex64(0xab) == "00000000000000ab", "hex is zero-padded");

  Expect(Json::Quote("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "JSON quoting");
  Expect(Json().Int("n", 3).Str("s", "x").str() == "{\"n\": 3, \"s\": \"x\"}",
         "JSON object");

  {
    SpanLog log(true);
    const auto root = log.Open("root", "a");
    const auto child = log.Open("child", "b");
    log.Close(child);
    const auto sibling = log.Open("sibling", "b");
    log.Close(sibling);
    log.Close(root);
    const std::string json = log.ToJson();
    Expect(log.size() == 3, "three spans recorded");
    Expect(json.find("\"id\": 2, \"parent\": 1") != std::string::npos,
           "child's parent is the root");
    Expect(json.find("\"id\": 3, \"parent\": 1") != std::string::npos,
           "sibling's parent is the root");
    bool threw = false;
    const auto outer = log.Open("outer", "a");
    log.Open("inner", "a");
    try {
      log.Close(outer);
    } catch (const std::logic_error&) {
      threw = true;
    }
    Expect(threw, "closing out of order throws");
    SpanLog off(false);
    Expect(off.Open("x", "y") == 0 && off.size() == 0, "disabled log is empty");
  }

  {
    // The fleet digest is thread-count invariant and sees one changed count.
    const shep::ScenarioSpec spec = FleetSpec(Workload::kFleetMix, 7, true);
    const shep::FleetSummary serial = shep::RunFleet(spec);
    shep::ThreadPool pool(2);
    shep::FleetRunOptions options;
    options.pool = &pool;
    const shep::FleetSummary pooled = shep::RunFleet(spec, options);
    const std::uint64_t digest = FleetDigest(serial, serial.ToCsv());
    Expect(digest == FleetDigest(pooled, pooled.ToCsv()),
           "fleet digest is equal across thread counts");
    shep::FleetSummary changed = serial;
    changed.stats.back().violations += 1;
    Expect(FleetDigest(changed, serial.ToCsv()) != digest,
           "fleet digest sees an integer total change");
    Expect(FleetDigest(serial, serial.ToCsv() + " ") != digest,
           "fleet digest sees a CSV change");
    const shep::ScenarioSpec other = FleetSpec(Workload::kFleetMix, 8, true);
    const shep::FleetSummary reseeded = shep::RunFleet(other);
    Expect(FleetDigest(reseeded, reseeded.ToCsv()) != digest,
           "fleet digest depends on the seed");
  }

  std::cout << Json().Int("failures", failures).str() << "\n";
  return failures == 0 ? 0 : 1;
}

int PrintUsage() {
  std::cerr << "usage: perfbench reference|rep WORKLOAD SEED [--tiny]\n"
               "       perfbench layers WORKLOAD SEED BUDGET_S SPANS_PATH "
               "[--tiny]\n"
               "       perfbench selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool tiny = false;
  if (!args.empty() && args.back() == "--tiny") {
    tiny = true;
    args.pop_back();
  }
  if (args.empty()) return PrintUsage();
  const std::string& mode = args[0];
  try {
    if (mode == "selftest" && args.size() == 1) return SelfTest();
    if ((mode == "reference" || mode == "rep") && args.size() == 3) {
      const Workload workload = ParseWorkload(args[1]);
      const std::uint64_t seed = ParseSeed(args[2]);
      if (mode == "rep") {
        std::cout << RunRep(workload, seed, tiny).ToJson() << "\n";
        return 0;
      }
      SpanLog off(false);
      const ReplayResult reference =
          Replay(workload, seed, tiny, off, nullptr, "", false);
      std::cout << Json()
                       .Str("digest", Hex64(reference.digest))
                       .Raw("shape", reference.shape.ToJson())
                       .Num("serial_stage_s", reference.serial_stage_s)
                       .Raw("provenance", Provenance())
                       .str()
                << "\n";
      return 0;
    }
    if (mode == "layers" && args.size() == 5) {
      const Workload workload = ParseWorkload(args[1]);
      const std::uint64_t seed = ParseSeed(args[2]);
      const double budget_s = std::stod(args[3]);
      std::uint64_t failed = 0;
      const std::string record =
          RunLayerPass(workload, seed, tiny, budget_s, args[4], &failed);
      std::cout << Json()
                       .Raw("pass", record)
                       .Raw("provenance", Provenance())
                       .str()
                << "\n";
      return 0;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  return PrintUsage();
}
