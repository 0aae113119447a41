//===- harness_golden_test.cpp - Pinned chaos/load trace hashes -----------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
// Golden outputs of the fault-and-audit harness under both drivers. Every
// other determinism test compares one run against another run of the same
// build; this one compares against numbers recorded once, so a refactor
// that changes any RNG draw, creation order, scheduled action or audit
// verdict fails here even though it replays consistently with itself.
//
// Each row pins the trace-event count and FNV digest, the virtual end
// time, the report's summary line and the exact violation list. The table
// is backend-independent: CI runs it under PROMISES_BACKEND=fiber and
// =thread alike.
//
// A failing row prints its replacement literal.
//
//===----------------------------------------------------------------------===//

#include "promises/chaos/Chaos.h"
#include "promises/load/Load.h"
#include "promises/support/StrUtil.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

using namespace promises;

namespace {

struct Pinned {
  std::string Trace; ///< "TraceEvents@TraceHash", as the summary prints it.
  sim::Time VirtualEnd = 0;
  std::string Summary;
  std::vector<std::string> Violations;

  bool operator==(const Pinned &) const = default;
};

template <typename Report> Pinned pin(const Report &R) {
  return {strprintf("%llu@%016llx", (unsigned long long)R.TraceEvents,
                    (unsigned long long)R.TraceHash),
          R.VirtualEnd, R.summary(), R.Violations};
}

/// \p S as a C++ string literal, split into adjacent literals at spaces so
/// table lines stay short; continuation lines are indented by \p Indent.
std::string quoted(const std::string &S, size_t Indent = 0) {
  std::string Q = "\"", Line;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Line += '\\';
    Line += C;
    if (C == ' ' && Line.size() > 40) {
      Q += Line + "\"\n" + std::string(Indent, ' ') + "\"";
      Line.clear();
    }
  }
  return Q + Line + "\"";
}

/// The row literal that would make \p P pass, for re-baselining.
std::string literal(const std::string &Key, const Pinned &P) {
  std::string L = "{" + Key + ", " + quoted(P.Trace) + ", " +
                  std::to_string(P.VirtualEnd) + ",\n " +
                  quoted(P.Summary, 1) + ",\n {";
  for (size_t I = 0; I != P.Violations.size(); ++I)
    L += (I ? ",\n  " : "") + quoted(P.Violations[I], 2);
  return L + "}},";
}

std::string testName(std::string N) {
  for (char &C : N)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return N;
}

//===----------------------------------------------------------------------===//
// chaossim: every profile x every workload flag set, seed 1, 48 ops/client
//===----------------------------------------------------------------------===//

enum class Workload { Plain, Deadlines, Wire, Storage };

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::Plain:
    return "plain";
  case Workload::Deadlines:
    return "deadlines";
  case Workload::Wire:
    return "wire";
  case Workload::Storage:
    return "storage";
  }
  return "?";
}

struct ChaosRow {
  const char *Profile;
  Workload W;
  Pinned Want;
};

chaos::ChaosOptions chaosOptions(const ChaosRow &Row) {
  chaos::ChaosOptions O;
  O.Seed = 1;
  O.Profile = *chaos::ChaosProfile::byName(Row.Profile);
  O.OpsPerClient = 48;
  O.Deadlines = Row.W == Workload::Deadlines;
  O.Corrupt = O.Dup = O.Reorder = Row.W == Workload::Wire;
  O.Storage = Row.W == Workload::Storage;
  return O;
}

// This table, the load table and the storm row below were recorded
// before the chaos and load drivers moved onto the shared harness. Any
// later deliberate re-baseline (merging the volatile and durable 2PC
// protocols, say) updates the affected rows in the same change and says
// so in CHANGES.md.
const std::vector<ChaosRow> &chaosTable() {
  using W = Workload;
  static const std::vector<ChaosRow> T = {
      {"crashes", W::Plain, "416@018060af82976780", 480910075,
       "ops=96 normal=52 unavailable=20 failed=0 "
       "exn=3 sends=21 exec=70 orphans=0 crashes=5 "
       "restarts=5 shutdowns=3 parts=0 bursts=0 stale=3 "
       "vms=480.910 trace=416@018060af82976780",
       {}},
      {"crashes", W::Deadlines, "441@6086061007a4b16f", 487724877,
       "ops=96 normal=45 unavailable=27 failed=0 "
       "exn=3 sends=21 exec=69 orphans=0 crashes=5 "
       "restarts=5 shutdowns=3 parts=0 bursts=0 stale=11 "
       "vms=487.725 trace=441@6086061007a4b16f expired=0/0 "
       "cancelled=3/3 shed=5/5 fastfail=3 retries=6 "
       "cancels=7",
       {}},
      {"crashes", W::Wire, "439@1cfad8660f115fc3", 485777898,
       "ops=96 normal=58 unavailable=13 failed=0 "
       "exn=4 sends=21 exec=80 orphans=0 crashes=5 "
       "restarts=5 shutdowns=2 parts=0 bursts=0 stale=7 "
       "vms=485.778 trace=439@1cfad8660f115fc3 corrupted=2 "
       "cdropped=1 malformed=0 cbursts=3",
       {}},
      {"crashes", W::Storage, "497@161f7655b07eb76a", 437935709,
       "ops=96 normal=69 unavailable=10 failed=0 "
       "exn=5 sends=12 exec=57 orphans=0 crashes=5 "
       "restarts=5 shutdowns=3 parts=0 bursts=0 stale=2 "
       "vms=437.936 trace=497@161f7655b07eb76a dput=27 "
       "replay=8 scrash=5 torn=0",
       {}},
      {"partitions", W::Plain, "465@5fc30b3c0a5ddecc", 361000000,
       "ops=96 normal=66 unavailable=4 failed=0 exn=5 "
       "sends=21 exec=96 orphans=2 crashes=0 restarts=0 "
       "shutdowns=0 parts=13 bursts=0 stale=0 vms=361.000 "
       "trace=465@5fc30b3c0a5ddecc",
       {}},
      {"partitions", W::Deadlines, "475@5eec1c5722777c55", 363746715,
       "ops=96 normal=60 unavailable=10 failed=0 "
       "exn=5 sends=21 exec=89 orphans=2 crashes=0 "
       "restarts=0 shutdowns=0 parts=13 bursts=0 "
       "stale=0 vms=363.747 trace=475@5eec1c5722777c55 "
       "expired=1/2 cancelled=2/2 shed=1/2 fastfail=0 "
       "retries=2 cancels=7",
       {}},
      {"partitions", W::Wire, "467@e75e77504c020ba4", 453616077,
       "ops=96 normal=62 unavailable=8 failed=0 exn=5 "
       "sends=21 exec=88 orphans=1 crashes=0 restarts=0 "
       "shutdowns=0 parts=10 bursts=0 stale=0 vms=453.616 "
       "trace=467@e75e77504c020ba4 corrupted=3 cdropped=3 "
       "malformed=0 cbursts=3",
       {}},
      {"partitions", W::Storage, "505@c5f7d81a92e9ea73", 377062463,
       "ops=96 normal=73 unavailable=6 failed=0 exn=5 "
       "sends=12 exec=59 orphans=0 crashes=0 restarts=0 "
       "shutdowns=0 parts=13 bursts=0 stale=0 vms=377.062 "
       "trace=505@c5f7d81a92e9ea73 dput=29 replay=0 "
       "scrash=0 torn=0",
       {}},
      {"loss", W::Plain, "470@2b6a351d1a522346", 381901739,
       "ops=96 normal=65 unavailable=5 failed=0 exn=5 "
       "sends=21 exec=96 orphans=1 crashes=0 restarts=0 "
       "shutdowns=0 parts=0 bursts=19 stale=0 vms=381.902 "
       "trace=470@2b6a351d1a522346",
       {}},
      {"loss", W::Deadlines, "473@6798b9c29084ec63", 420478762,
       "ops=96 normal=61 unavailable=10 failed=0 "
       "exn=4 sends=21 exec=91 orphans=3 crashes=0 "
       "restarts=0 shutdowns=0 parts=0 bursts=19 "
       "stale=0 vms=420.479 trace=473@6798b9c29084ec63 "
       "expired=1/1 cancelled=3/3 shed=0/1 fastfail=0 "
       "retries=1 cancels=7",
       {}},
      {"loss", W::Wire, "493@630e527310611aeb", 388970741,
       "ops=96 normal=64 unavailable=7 failed=0 exn=4 "
       "sends=21 exec=96 orphans=2 crashes=0 restarts=0 "
       "shutdowns=0 parts=0 bursts=16 stale=0 vms=388.971 "
       "trace=493@630e527310611aeb corrupted=2 cdropped=2 "
       "malformed=0 cbursts=3",
       {}},
      {"loss", W::Storage, "533@0b7e3541d6344b28", 373019454,
       "ops=96 normal=78 unavailable=1 failed=0 exn=5 "
       "sends=12 exec=63 orphans=2 crashes=0 restarts=0 "
       "shutdowns=0 parts=0 bursts=19 stale=0 vms=373.019 "
       "trace=533@0b7e3541d6344b28 dput=32 replay=0 "
       "scrash=0 torn=0",
       {}},
      {"mixed", W::Plain, "453@ddbf5584eae3f070", 417405848,
       "ops=96 normal=61 unavailable=9 failed=0 exn=5 "
       "sends=21 exec=90 orphans=2 crashes=1 restarts=1 "
       "shutdowns=3 parts=5 bursts=4 stale=0 vms=417.406 "
       "trace=453@ddbf5584eae3f070",
       {}},
      {"mixed", W::Deadlines, "482@3faa52f9c45a6542", 489740849,
       "ops=96 normal=52 unavailable=19 failed=0 "
       "exn=4 sends=21 exec=86 orphans=2 crashes=1 "
       "restarts=1 shutdowns=3 parts=5 bursts=4 stale=8 "
       "vms=489.741 trace=482@3faa52f9c45a6542 expired=0/1 "
       "cancelled=4/4 shed=3/4 fastfail=2 retries=6 "
       "cancels=7",
       {}},
      {"mixed", W::Wire, "469@952fb04ee9842b05", 371000000,
       "ops=96 normal=64 unavailable=7 failed=0 exn=4 "
       "sends=21 exec=95 orphans=3 crashes=0 restarts=0 "
       "shutdowns=1 parts=3 bursts=4 stale=0 vms=371.000 "
       "trace=469@952fb04ee9842b05 corrupted=7 cdropped=7 "
       "malformed=0 cbursts=6",
       {}},
      {"mixed", W::Storage, "500@8b3476b69f9ec20e", 431670474,
       "ops=96 normal=73 unavailable=7 failed=0 exn=4 "
       "sends=12 exec=60 orphans=0 crashes=1 restarts=1 "
       "shutdowns=3 parts=5 bursts=4 stale=1 vms=431.670 "
       "trace=500@8b3476b69f9ec20e dput=29 replay=11 "
       "scrash=1 torn=0",
       {}},
  };
  return T;
}

void PrintTo(const ChaosRow &Row, std::ostream *OS) {
  *OS << Row.Profile << "/" << workloadName(Row.W);
}

class ChaosGolden : public ::testing::TestWithParam<ChaosRow> {};

TEST_P(ChaosGolden, MatchesPinnedRun) {
  const ChaosRow &Row = GetParam();
  Pinned Got = pin(chaos::runChaos(chaosOptions(Row)));
  EXPECT_EQ(Got.Trace, Row.Want.Trace);
  EXPECT_EQ(Got.VirtualEnd, Row.Want.VirtualEnd);
  EXPECT_EQ(Got.Summary, Row.Want.Summary);
  EXPECT_EQ(Got.Violations, Row.Want.Violations);
  if (!(Got == Row.Want))
    ADD_FAILURE() << "replacement row:\n"
                  << literal(strprintf("\"%s\", W::%c%s", Row.Profile,
                                       std::toupper(*workloadName(Row.W)),
                                       workloadName(Row.W) + 1),
                             Got);
}

INSTANTIATE_TEST_SUITE_P(
    Table, ChaosGolden, ::testing::ValuesIn(chaosTable()),
    [](const ::testing::TestParamInfo<ChaosRow> &I) {
      return testName(std::string(I.param.Profile) + "_" +
                      workloadName(I.param.W));
    });

//===----------------------------------------------------------------------===//
// loadsim: every catalogue scenario at seed 1, plus the 8x durable storm
//===----------------------------------------------------------------------===//

struct LoadRow {
  const char *Scenario;
  Pinned Want;
};

const std::vector<LoadRow> &loadTable() {
  static const std::vector<LoadRow> T = {
      {"steady", "6223@7d6836b16ae95227", 322062077,
       "offered=1104 normal=1103 shed=1/1 fastfail=0 "
       "expired=0 retries=0 exec=1103 goodput=3707->3647cps "
       "ratio=0.98 p50=2593us p99=2720us p999=2836us "
       "vms=322.062 trace=6223@7d6836b16ae95227",
       {}},
      {"storm", "10822@a339774df1303d14", 421484371,
       "offered=1894 normal=1246 shed=648/648 fastfail=0 "
       "expired=0 retries=0 exec=1246 goodput=2680->3550cps "
       "ratio=1.32 p50=2656us p99=3040us p999=3104us "
       "vms=421.484 trace=10822@a339774df1303d14",
       {}},
      {"spike", "9071@c1d15a8698b8f5fb", 572219369,
       "offered=1393 normal=966 shed=147/184 fastfail=0 "
       "expired=280 retries=37 exec=966 goodput=1500->3330cps "
       "ratio=2.22 p50=8832us p99=165888us p999=165888us "
       "vms=572.219 trace=9071@c1d15a8698b8f5fb",
       {}},
      {"diurnal", "7393@511e5814a7a12bb0", 416560518,
       "offered=1294 normal=969 shed=325/325 fastfail=0 "
       "expired=0 retries=0 exec=969 goodput=3275->1570cps "
       "ratio=0.48 p50=2593us p99=2848us p999=3040us "
       "vms=416.561 trace=7393@511e5814a7a12bb0",
       {}},
      {"tenants", "8268@fe6c655f59585f14", 321779901,
       "offered=1488 normal=787 shed=701/701 fastfail=0 "
       "expired=0 retries=0 exec=787 goodput=2327->2920cps "
       "ratio=1.26 p50=2593us p99=2912us p999=3232us "
       "vms=321.780 trace=8268@fe6c655f59585f14",
       {}},
      {"neworder", "27745@2dc3c7e3aea9a70f", 585884962,
       "offered=372 normal=372 shed=0/0 fastfail=0 "
       "expired=0 retries=0 exec=4836 goodput=525->1335cps "
       "ratio=2.54 p50=115712us p99=197169us p999=197169us "
       "vms=585.885 trace=27745@2dc3c7e3aea9a70f",
       {}},
      {"neworder-crash", "12897@f636fff99fce5920", 575936018,
       "offered=232 normal=145 shed=0/0 fastfail=0 "
       "expired=0 retries=0 exec=2069 goodput=0->580cps "
       "ratio=0.00 p50=43520us p99=78848us p999=78848us "
       "vms=575.936 trace=12897@f636fff99fce5920 "
       "committed=145 scrash=10 torn=0 replay=6 indoubt=0 "
       "resolved=1/0",
       {}},
      {"chaos-storm", "15936@d3938c5dc1a6d071", 529549916,
       "offered=2981 normal=1981 shed=51/100 fastfail=0 "
       "expired=327 retries=68 exec=1982 goodput=1216->6708cps "
       "ratio=5.52 p50=3552us p99=12416us p999=29440us "
       "vms=529.550 trace=15936@d3938c5dc1a6d071",
       {}},
  };
  return T;
}

void expectLoad(const LoadRow &Row, const load::LoadOptions &O) {
  Pinned Got = pin(load::runLoad(O));
  EXPECT_EQ(Got.Trace, Row.Want.Trace);
  EXPECT_EQ(Got.VirtualEnd, Row.Want.VirtualEnd);
  EXPECT_EQ(Got.Summary, Row.Want.Summary);
  EXPECT_EQ(Got.Violations, Row.Want.Violations);
  if (!(Got == Row.Want))
    ADD_FAILURE() << "replacement row:\n"
                  << literal(quoted(Row.Scenario), Got);
}

load::LoadOptions loadOptions(const char *Scenario) {
  load::LoadOptions O;
  O.Seed = 1;
  O.Scenario = *load::LoadScenario::byName(Scenario);
  return O;
}

void PrintTo(const LoadRow &Row, std::ostream *OS) { *OS << Row.Scenario; }

class LoadGolden : public ::testing::TestWithParam<LoadRow> {};

TEST_P(LoadGolden, MatchesPinnedRun) {
  expectLoad(GetParam(), loadOptions(GetParam().Scenario));
}

INSTANTIATE_TEST_SUITE_P(Table, LoadGolden, ::testing::ValuesIn(loadTable()),
                         [](const ::testing::TestParamInfo<LoadRow> &I) {
                           return testName(I.param.Scenario);
                         });

// The durable new-order storm stretched 8x (the neworder-durable
// benchmark's world): the sustained storm collapses goodput and strands
// transactions, and the merged audit must keep reporting exactly these
// violations.
TEST(LoadGoldenStorm, DurableNewOrderKeepsItsViolations) {
  const LoadRow Row =
      {"neworder", "334140@c771455cd70f7183", 9322883430,
       "offered=2853 normal=1091 shed=0/0 fastfail=0 "
       "expired=0 retries=0 exec=24935 goodput=515->167cps "
       "ratio=0.32 p50=14208us p99=2457600us p999=3047424us "
       "vms=9322.883 trace=334140@c771455cd70f7183 "
       "committed=1176 scrash=0 torn=0 replay=0 indoubt=0 "
       "resolved=359/0",
       {"goodput collapse: overload/base ratio 0.324 "
        "below floor 0.500 (515 -> 167 cps)",
        "srv0: 180 transactions stranded",
        "srv1: 177 transactions stranded",
        "srv2: 181 transactions stranded",
        "85 transactions in doubt on a clean wire",
        "commit conservation: 3528 participant commits "
        "!= 1091 committed x 3 partitions"}};
  load::LoadOptions O = loadOptions("neworder");
  O.ForceStorage = true;
  O.DurationScale = 8;
  expectLoad(Row, O);
  EXPECT_EQ(Row.Want.Violations.size(), 6u);
}

} // namespace
