//===- loadsim.cpp - Deterministic overload/workload driver -----------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Runs one of the named workload scenarios (see docs/WORKLOADS.md) over one
// or many seeds and reports graceful-degradation battery violations. Every
// run is a pure function of its options, so a failing seed is reproduced
// exactly by the printed replay command:
//
//   loadsim --scenario storm --seeds 10
//   loadsim --scenario tenants --seed 42 --backend thread
//   loadsim --scenario storm --bench-out BENCH_9.json
//
//===----------------------------------------------------------------------===//

#include "promises/load/Load.h"
#include "promises/support/StrUtil.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

using namespace promises;
using namespace promises::load;

namespace {

struct Options {
  uint64_t Seed = 1;
  uint64_t Seeds = 1; ///< Consecutive seeds starting at Seed.
  std::string Scenario = "storm";
  double RateScale = 1.0;
  double DurationScale = 1.0;
  sim::BackendKind Backend = sim::SimConfig::defaultBackend();
  bool Storage = false;
  std::optional<double> TornRate; ///< Unset: keep the scenario's rate.
  std::optional<double> LostRate;
  bool List = false;
  bool ReplayCheck = true; ///< Run each seed twice, compare traces.
  bool Quiet = false;
  std::string BenchOut; ///< Write the first seed's BENCH_9 JSON here.
};

void usage(const char *Argv0) {
  std::string Scenarios;
  for (const std::string &N : LoadScenario::names())
    Scenarios += (Scenarios.empty() ? "" : "|") + N;
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --scenario S      %s (default storm)\n"
      "  --list            list scenarios with their summaries and exit\n"
      "  --seed S          first seed (default 1)\n"
      "  --seeds N         run N consecutive seeds (default 1)\n"
      "  --rate-scale F    scale every tenant's offered rate (default 1)\n"
      "  --duration-scale F scale the scenario duration (default 1)\n"
      "  --backend B       fiber|thread execution backend (default: \n"
      "                    $PROMISES_BACKEND, else fiber); trace hashes are\n"
      "                    backend-independent\n"
      "  --storage-faults  force durable WAL-backed servers onto the\n"
      "                    scenario (see docs/DURABILITY.md)\n"
      "  --torn-rate F     P(lost suffix is torn mid-record); default: the\n"
      "                    scenario's rate (0.3)\n"
      "  --lost-rate F     P(crash loses the un-synced suffix); default:\n"
      "                    the scenario's rate (0.7)\n"
      "  --bench-out FILE  write the first seed's bench_overload JSON record\n"
      "  --no-replay       skip the determinism double-run\n"
      "  --quiet           print failures and the final line only\n",
      Argv0, Scenarios.c_str());
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    auto Need = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    const char *A = Argv[I];
    const char *V = nullptr;
    if (!std::strcmp(A, "--scenario")) {
      if (!(V = Need(A)))
        return false;
      O.Scenario = V;
    } else if (!std::strcmp(A, "--list")) {
      O.List = true;
    } else if (!std::strcmp(A, "--seed")) {
      if (!(V = Need(A)))
        return false;
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--seeds")) {
      if (!(V = Need(A)))
        return false;
      O.Seeds = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--rate-scale")) {
      if (!(V = Need(A)))
        return false;
      O.RateScale = std::strtod(V, nullptr);
    } else if (!std::strcmp(A, "--duration-scale")) {
      if (!(V = Need(A)))
        return false;
      O.DurationScale = std::strtod(V, nullptr);
    } else if (!std::strcmp(A, "--backend")) {
      if (!(V = Need(A)))
        return false;
      if (!sim::SimConfig::parseBackend(V, O.Backend)) {
        std::fprintf(stderr,
                     "error: unknown backend %s (valid: fiber, thread)\n", V);
        return false;
      }
    } else if (!std::strcmp(A, "--storage-faults")) {
      O.Storage = true;
    } else if (!std::strcmp(A, "--torn-rate")) {
      if (!(V = Need(A)))
        return false;
      O.TornRate = std::strtod(V, nullptr);
    } else if (!std::strcmp(A, "--lost-rate")) {
      if (!(V = Need(A)))
        return false;
      O.LostRate = std::strtod(V, nullptr);
    } else if (!std::strcmp(A, "--bench-out")) {
      if (!(V = Need(A)))
        return false;
      O.BenchOut = V;
    } else if (!std::strcmp(A, "--no-replay")) {
      O.ReplayCheck = false;
    } else if (!std::strcmp(A, "--quiet")) {
      O.Quiet = true;
    } else {
      std::fprintf(stderr,
                   "error: unknown flag %s (valid: --scenario --list --seed "
                   "--seeds --rate-scale --duration-scale --backend "
                   "--storage-faults --torn-rate --lost-rate --bench-out "
                   "--no-replay --quiet)\n",
                   A);
      return false;
    }
  }
  if (O.Seeds == 0) {
    std::fprintf(stderr, "error: --seeds must be > 0\n");
    return false;
  }
  if (!(O.RateScale > 0 && std::isfinite(O.RateScale)) ||
      !(O.DurationScale > 0 && std::isfinite(O.DurationScale))) {
    std::fprintf(stderr, "error: --rate-scale/--duration-scale must be "
                         "finite and > 0\n");
    return false;
  }
  for (const std::optional<double> &Rate : {O.TornRate, O.LostRate})
    if (Rate && !(*Rate >= 0 && *Rate <= 1)) {
      std::fprintf(stderr,
                   "error: --torn-rate/--lost-rate must be in [0,1]\n");
      return false;
    }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage(Argv[0]);
    return 2;
  }
  if (O.List) {
    for (const LoadScenario &Sc : LoadScenario::all())
      std::printf("%-12s %s\n", Sc.Name.c_str(), Sc.Summary.c_str());
    return 0;
  }
  const LoadScenario *Sc = LoadScenario::byName(O.Scenario);
  if (!Sc) {
    std::string Scenarios;
    for (const std::string &N : LoadScenario::names())
      Scenarios += (Scenarios.empty() ? "" : ", ") + N;
    std::fprintf(stderr, "error: unknown scenario %s (valid: %s)\n",
                 O.Scenario.c_str(), Scenarios.c_str());
    usage(Argv[0]);
    return 2;
  }

  uint64_t Failures = 0;
  for (uint64_t S = O.Seed; S != O.Seed + O.Seeds; ++S) {
    LoadOptions LO;
    LO.Seed = S;
    LO.Scenario = *Sc;
    LO.RateScale = O.RateScale;
    LO.DurationScale = O.DurationScale;
    LO.Backend = O.Backend;
    LO.ForceStorage = O.Storage;
    LO.TornRate = O.TornRate.value_or(-1);
    LO.LostRate = O.LostRate.value_or(-1);

    LoadReport R = runLoad(LO);
    bool Bad = !R.ok();
    if (!Bad && O.ReplayCheck) {
      LoadReport R2 = runLoad(LO);
      if (R2.TraceHash != R.TraceHash || R2.TraceEvents != R.TraceEvents ||
          !R2.ok()) {
        Bad = true;
        R.Violations.push_back(strprintf(
            "nondeterministic replay: trace %llu@%016llx vs %llu@%016llx",
            (unsigned long long)R.TraceEvents,
            (unsigned long long)R.TraceHash,
            (unsigned long long)R2.TraceEvents,
            (unsigned long long)R2.TraceHash));
        for (const std::string &V : R2.Violations)
          R.Violations.push_back("replay: " + V);
      }
    }

    if (Bad) {
      ++Failures;
      std::printf("seed %llu [%s]: FAIL %s\n", (unsigned long long)S,
                  Sc->Name.c_str(), R.summary().c_str());
      for (const std::string &V : R.Violations)
        std::printf("  violation: %s\n", V.c_str());
      std::printf("  replay: %s\n", replayCommand(LO).c_str());
    } else if (!O.Quiet) {
      std::printf("seed %llu [%s]: ok %s\n", (unsigned long long)S,
                  Sc->Name.c_str(), R.summary().c_str());
    }

    if (S == O.Seed && !O.BenchOut.empty()) {
      std::FILE *F = std::fopen(O.BenchOut.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "error: cannot write %s\n", O.BenchOut.c_str());
        return 2;
      }
      std::fprintf(F, "%s\n", benchJson(LO, R).c_str());
      std::fclose(F);
    }
  }

  std::printf("%llu/%llu seeds ok [%s]\n",
              (unsigned long long)(O.Seeds - Failures),
              (unsigned long long)O.Seeds, Sc->Name.c_str());
  return Failures == 0 ? 0 : 1;
}
