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
      {"crashes", W::Plain, "393@2e42ed0471192c7b", 492801980,
       "ops=96 normal=50 unavailable=23 failed=0 "
       "exn=2 sends=21 exec=70 orphans=0 crashes=5 "
       "restarts=5 shutdowns=3 parts=0 bursts=0 stale=3 "
       "vms=492.802 trace=393@2e42ed0471192c7b",
       {}},
      {"crashes", W::Deadlines, "432@fec28da068b4aa4e", 488345868,
       "ops=96 normal=44 unavailable=28 failed=0 "
       "exn=3 sends=21 exec=67 orphans=0 crashes=5 "
       "restarts=5 shutdowns=3 parts=0 bursts=0 stale=12 "
       "vms=488.346 trace=432@fec28da068b4aa4e expired=0/0 "
       "cancelled=4/4 shed=5/5 fastfail=3 retries=6 "
       "cancels=7",
       {}},
      {"crashes", W::Wire, "423@552c5c139c2f9b0e", 485607175,
       "ops=96 normal=51 unavailable=21 failed=0 "
       "exn=3 sends=21 exec=76 orphans=2 crashes=5 "
       "restarts=5 shutdowns=2 parts=0 bursts=0 stale=8 "
       "vms=485.607 trace=423@552c5c139c2f9b0e corrupted=2 "
       "cdropped=2 malformed=0 cbursts=3",
       {}},
      {"crashes", W::Storage, "458@c50123f1c4eae447", 442360092,
       "ops=96 normal=69 unavailable=10 failed=0 "
       "exn=5 sends=12 exec=57 orphans=0 crashes=5 "
       "restarts=5 shutdowns=3 parts=0 bursts=0 stale=2 "
       "vms=442.360 trace=458@c50123f1c4eae447 dput=27 "
       "replay=8 scrash=5 torn=0",
       {}},
      {"partitions", W::Plain, "443@f80883d95af25909", 369361790,
       "ops=96 normal=64 unavailable=7 failed=0 exn=4 "
       "sends=21 exec=95 orphans=2 crashes=0 restarts=0 "
       "shutdowns=0 parts=13 bursts=0 stale=0 vms=369.362 "
       "trace=443@f80883d95af25909",
       {}},
      {"partitions", W::Deadlines, "462@aa383889fee5397f", 362003042,
       "ops=96 normal=61 unavailable=10 failed=0 "
       "exn=4 sends=21 exec=91 orphans=2 crashes=0 "
       "restarts=0 shutdowns=0 parts=13 bursts=0 "
       "stale=0 vms=362.003 trace=462@aa383889fee5397f "
       "expired=2/3 cancelled=3/3 shed=2/3 fastfail=0 "
       "retries=1 cancels=7",
       {}},
      {"partitions", W::Wire, "457@19d442f545af67e3", 453954783,
       "ops=96 normal=66 unavailable=5 failed=0 exn=4 "
       "sends=21 exec=96 orphans=1 crashes=0 restarts=0 "
       "shutdowns=0 parts=10 bursts=0 stale=0 vms=453.955 "
       "trace=457@19d442f545af67e3 corrupted=3 cdropped=3 "
       "malformed=0 cbursts=3",
       {}},
      {"partitions", W::Storage, "453@664a787b70634177", 386492627,
       "ops=96 normal=74 unavailable=5 failed=0 exn=5 "
       "sends=12 exec=59 orphans=0 crashes=0 restarts=0 "
       "shutdowns=0 parts=13 bursts=0 stale=0 vms=386.493 "
       "trace=453@664a787b70634177 dput=30 replay=0 "
       "scrash=0 torn=0",
       {}},
      {"loss", W::Plain, "441@8fa672684137c044", 351000000,
       "ops=96 normal=62 unavailable=9 failed=0 exn=4 "
       "sends=21 exec=93 orphans=2 crashes=0 restarts=0 "
       "shutdowns=0 parts=0 bursts=19 stale=0 vms=351.000 "
       "trace=441@8fa672684137c044",
       {}},
      {"loss", W::Deadlines, "463@253380cfc95728ba", 402203849,
       "ops=96 normal=59 unavailable=12 failed=0 "
       "exn=4 sends=21 exec=90 orphans=4 crashes=0 "
       "restarts=0 shutdowns=0 parts=0 bursts=19 "
       "stale=0 vms=402.204 trace=463@253380cfc95728ba "
       "expired=0/0 cancelled=4/4 shed=2/3 fastfail=0 "
       "retries=1 cancels=7",
       {}},
      {"loss", W::Wire, "482@8db800f76b394326", 468759284,
       "ops=96 normal=63 unavailable=8 failed=0 exn=4 "
       "sends=21 exec=96 orphans=1 crashes=0 restarts=0 "
       "shutdowns=0 parts=0 bursts=16 stale=0 vms=468.759 "
       "trace=482@8db800f76b394326 corrupted=6 cdropped=6 "
       "malformed=0 cbursts=3",
       {}},
      {"loss", W::Storage, "478@0c151571f52c5fa2", 383541597,
       "ops=96 normal=77 unavailable=2 failed=0 exn=5 "
       "sends=12 exec=63 orphans=3 crashes=0 restarts=0 "
       "shutdowns=0 parts=0 bursts=19 stale=0 vms=383.542 "
       "trace=478@0c151571f52c5fa2 dput=31 replay=0 "
       "scrash=0 torn=0",
       {}},
      {"mixed", W::Plain, "415@15e1c807d7a3a8dc", 382970521,
       "ops=96 normal=59 unavailable=12 failed=0 "
       "exn=4 sends=21 exec=84 orphans=2 crashes=1 "
       "restarts=1 shutdowns=3 parts=5 bursts=4 stale=0 "
       "vms=382.971 trace=415@15e1c807d7a3a8dc",
       {}},
      {"mixed", W::Deadlines, "476@b882cc26913bbcf7", 477985619,
       "ops=96 normal=55 unavailable=15 failed=0 "
       "exn=5 sends=21 exec=83 orphans=2 crashes=1 "
       "restarts=1 shutdowns=3 parts=5 bursts=4 stale=9 "
       "vms=477.986 trace=476@b882cc26913bbcf7 expired=0/2 "
       "cancelled=6/6 shed=2/2 fastfail=2 retries=5 "
       "cancels=7",
       {}},
      {"mixed", W::Wire, "467@f6ac955638b4c1dc", 371000000,
       "ops=96 normal=64 unavailable=7 failed=0 exn=4 "
       "sends=21 exec=96 orphans=1 crashes=0 restarts=0 "
       "shutdowns=1 parts=3 bursts=4 stale=0 vms=371.000 "
       "trace=467@f6ac955638b4c1dc corrupted=9 cdropped=9 "
       "malformed=0 cbursts=6",
       {}},
      {"mixed", W::Storage, "450@e2a9b8fc383ab327", 398503609,
       "ops=96 normal=72 unavailable=8 failed=0 exn=4 "
       "sends=12 exec=59 orphans=0 crashes=1 restarts=1 "
       "shutdowns=3 parts=5 bursts=4 stale=2 vms=398.504 "
       "trace=450@e2a9b8fc383ab327 dput=29 replay=12 "
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
      {"steady", "5738@bda4e34290416a12", 322062077,
       "offered=1104 normal=1103 shed=1/1 fastfail=0 "
       "expired=0 retries=0 exec=1103 goodput=3707->3647cps "
       "ratio=0.98 p50=2593us p99=2720us p999=2848us "
       "vms=322.062 trace=5738@bda4e34290416a12",
       {}},
      {"storm", "9834@5eae3a3344214bf6", 421484371,
       "offered=1894 normal=1238 shed=656/656 fastfail=0 "
       "expired=0 retries=0 exec=1238 goodput=2675->3515cps "
       "ratio=1.31 p50=2593us p99=2848us p999=2848us "
       "vms=421.484 trace=9834@5eae3a3344214bf6",
       {}},
      {"spike", "8940@e6fe4d563f590551", 571458699,
       "offered=1393 normal=969 shed=147/185 fastfail=0 "
       "expired=277 retries=38 exec=969 goodput=1500->3345cps "
       "ratio=2.23 p50=8832us p99=165888us p999=165888us "
       "vms=571.459 trace=8940@e6fe4d563f590551",
       {}},
      {"diurnal", "6742@9f1161f9e1b88a66", 416560518,
       "offered=1294 normal=970 shed=324/324 fastfail=0 "
       "expired=0 retries=0 exec=970 goodput=3280->1570cps "
       "ratio=0.48 p50=2593us p99=2784us p999=2892us "
       "vms=416.561 trace=6742@9f1161f9e1b88a66",
       {}},
      {"tenants", "7612@0e454c371344b9c6", 321779901,
       "offered=1488 normal=787 shed=701/701 fastfail=0 "
       "expired=0 retries=0 exec=787 goodput=2327->2920cps "
       "ratio=1.26 p50=2593us p99=2784us p999=2912us "
       "vms=321.780 trace=7612@0e454c371344b9c6",
       {}},
      {"neworder", "22906@fb51459bf2a2fae8", 585906831,
       "offered=372 normal=372 shed=0/0 fastfail=0 "
       "expired=0 retries=0 exec=4836 goodput=525->1335cps "
       "ratio=2.54 p50=115712us p99=197309us p999=197309us "
       "vms=585.907 trace=22906@fb51459bf2a2fae8",
       {}},
      {"neworder-crash", "10850@60f9a4be54401739", 575804123,
       "offered=232 normal=145 shed=0/0 fastfail=0 "
       "expired=0 retries=0 exec=2073 goodput=0->580cps "
       "ratio=0.00 p50=46592us p99=68608us p999=70656us "
       "vms=575.804 trace=10850@60f9a4be54401739 "
       "committed=145 scrash=10 torn=0 replay=8 indoubt=0 "
       "resolved=0/0",
       {}},
      {"chaos-storm", "16049@1c02b3cf641fe6e8", 522202798,
       "offered=2981 normal=1949 shed=133/177 fastfail=0 "
       "expired=368 retries=55 exec=1949 goodput=1212->6584cps "
       "ratio=5.43 p50=3616us p99=12672us p999=56832us "
       "vms=522.203 trace=16049@1c02b3cf641fe6e8",
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
      {"neworder", "310405@9d9aadff4b454c81", 9247991851,
       "offered=2853 normal=1117 shed=0/0 fastfail=0 "
       "expired=0 retries=0 exec=25255 goodput=515->183cps "
       "ratio=0.36 p50=14208us p99=2523136us p999=2981888us "
       "vms=9247.992 trace=310405@9d9aadff4b454c81 "
       "committed=1202 scrash=0 torn=0 replay=0 indoubt=0 "
       "resolved=400/0",
       {"goodput collapse: overload/base ratio 0.356 "
        "below floor 0.500 (515 -> 183 cps)",
        "srv0: 179 transactions stranded",
        "srv1: 174 transactions stranded",
        "srv2: 179 transactions stranded",
        "85 transactions in doubt on a clean wire",
        "commit conservation: 3606 participant commits "
        "!= 1117 committed x 3 partitions"}};
  load::LoadOptions O = loadOptions("neworder");
  O.ForceStorage = true;
  O.DurationScale = 8;
  expectLoad(Row, O);
  EXPECT_EQ(Row.Want.Violations.size(), 6u);
}

} // namespace
