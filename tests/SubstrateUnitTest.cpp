//===- tests/SubstrateUnitTest.cpp - Substrate functional behaviour ----------===//
//
// The benchmark substrates are ordinary libraries with observable
// behaviour; these tests pin that behaviour down (single-threaded, in
// passthrough/no-runtime mode) independent of the deadlock analysis.
//
//===----------------------------------------------------------------------===//

#include "fuzzer/ActiveTester.h"
#include "runtime/Runtime.h"
#include "substrates/BenchmarkRegistry.h"
#include "substrates/collections/SyncList.h"
#include "substrates/collections/SyncMap.h"
#include "substrates/dbcp/Dbcp.h"
#include "substrates/logging/Logging.h"
#include "substrates/swing/Swing.h"

#include <gtest/gtest.h>

namespace {

using namespace dlf;

// -- SyncList -----------------------------------------------------------------

TEST(SyncList, AddAndQuery) {
  collections::SyncList L("ul", Label(), nullptr);
  EXPECT_EQ(L.size(), 0u);
  L.add(1);
  L.add(2);
  EXPECT_EQ(L.size(), 2u);
  EXPECT_TRUE(L.contains(1));
  EXPECT_FALSE(L.contains(9));
}

TEST(SyncList, AddAllAppendsEverything) {
  collections::SyncList A("ua", Label(), nullptr);
  collections::SyncList B("ub", Label(), nullptr);
  A.add(1);
  B.add(2);
  B.add(3);
  A.addAll(B);
  EXPECT_EQ(A.size(), 3u);
  EXPECT_TRUE(A.contains(2));
  EXPECT_EQ(B.size(), 2u) << "argument list must be untouched";
}

TEST(SyncList, RemoveAllAndRetainAll) {
  collections::SyncList A("ra", Label(), nullptr);
  collections::SyncList B("rb", Label(), nullptr);
  for (int I = 0; I != 6; ++I)
    A.add(I);
  B.add(1);
  B.add(3);
  B.add(5);
  A.removeAll(B);
  EXPECT_EQ(A.size(), 3u);
  EXPECT_TRUE(A.contains(0));
  EXPECT_FALSE(A.contains(3));

  collections::SyncList C("rc", Label(), nullptr);
  for (int I = 0; I != 6; ++I)
    C.add(I);
  C.retainAll(B);
  EXPECT_EQ(C.size(), 3u);
  EXPECT_TRUE(C.contains(5));
  EXPECT_FALSE(C.contains(0));
}

// -- SyncMap -----------------------------------------------------------------

TEST(SyncMap, PutGet) {
  collections::SyncMap M("um", Label(), nullptr);
  M.put(1, 10);
  M.put(2, 20);
  EXPECT_EQ(M.get(1), 10);
  EXPECT_EQ(M.get(3), 0) << "absent keys read as 0";
  EXPECT_EQ(M.size(), 2u);
}

TEST(SyncMap, EqualsSemantics) {
  collections::SyncMap A("ea", Label(), nullptr);
  collections::SyncMap B("eb", Label(), nullptr);
  A.put(1, 10);
  B.put(1, 10);
  EXPECT_TRUE(A.equals(B));
  B.put(2, 20);
  EXPECT_FALSE(A.equals(B)) << "size mismatch";
  A.put(2, 99);
  EXPECT_FALSE(A.equals(B)) << "value mismatch";
  A.put(2, 20);
  EXPECT_TRUE(A.equals(B));
}

TEST(SyncMap, GetAllCopiesMatchingKeys) {
  collections::SyncMap A("ga", Label(), nullptr);
  collections::SyncMap B("gb", Label(), nullptr);
  A.put(1, 0);
  A.put(2, 0);
  B.put(2, 22);
  B.put(3, 33);
  A.getAll(B);
  EXPECT_EQ(A.get(1), 0) << "keys absent in B keep their value";
  EXPECT_EQ(A.get(2), 22);
  EXPECT_EQ(A.size(), 2u) << "getAll must not insert new keys";
}

// -- Logging -----------------------------------------------------------------

TEST(Logging, FactoryAndState) {
  logging::LogManager Manager{Label()};
  logging::Logger &L = Manager.getLogger("unit");
  logging::Handler &H = Manager.getHandler("unit");
  EXPECT_EQ(L.name(), "unit");
  EXPECT_TRUE(L.isEnabled());
  L.log(H, "hello");
  EXPECT_EQ(H.recordCount(), 1u);
  H.flush();
  EXPECT_EQ(H.recordCount(), 0u);
  L.setLevel(2);
  Manager.reset(L);
  Manager.readConfiguration(H);
  EXPECT_EQ(H.recordCount(), 1u) << "readConfiguration appends a record";
  EXPECT_EQ(Manager.getProperty(), 7);
}

// -- DBCP ---------------------------------------------------------------------

TEST(Dbcp, ConnectionLifecycle) {
  dbcp::ConnectionPool Pool{Label()};
  dbcp::Connection &C = Pool.createConnection("unit");
  EXPECT_FALSE(C.isClosed());
  C.prepareStatement("select 1");
  EXPECT_EQ(Pool.activeCount(), 1u);
  Pool.closeStatement(C, "select 1");
  C.close();
  EXPECT_TRUE(C.isClosed());
  EXPECT_EQ(Pool.activeCount(), 0u);
}

TEST(Dbcp, EvictMarksClosed) {
  dbcp::ConnectionPool Pool{Label()};
  dbcp::Connection &C = Pool.createConnection("evict");
  Pool.evictIdle(C);
  EXPECT_TRUE(C.isClosed());
}

// -- Swing -------------------------------------------------------------------

TEST(Swing, CaretAndFrameState) {
  swing::Frame F{Label()};
  swing::TextArea Area(Label(), F);
  Area.setCaretPosition(17);
  EXPECT_EQ(Area.caret().dot(), 17);
  Area.caret().moveDot(3);
  EXPECT_EQ(Area.caret().dot(), 20);
  EXPECT_EQ(F.width(), 640);
  swing::RepaintManager RM;
  RM.paintDirtyRegions(Area.caret(), F); // must not self-deadlock
}

// -- Registry -----------------------------------------------------------------

TEST(Registry, AllBenchmarksPresent) {
  EXPECT_GE(allBenchmarks().size(), 10u);
  for (const char *Name :
       {"cache4j", "sor", "hedc", "jspider", "jigsaw", "logging", "swing",
        "dbcp", "collections-lists", "collections-maps", "collections"}) {
    const BenchmarkInfo *Info = findBenchmark(Name);
    ASSERT_NE(Info, nullptr) << Name;
    EXPECT_EQ(Info->Name, Name);
    EXPECT_TRUE(Info->Entry != nullptr);
  }
  EXPECT_EQ(findBenchmark("nonexistent"), nullptr);
}

TEST(Registry, EveryBenchmarkRunsUninstrumented) {
  // Each harness must terminate as a plain program (no runtime installed)
  // and exit 0. Each runs in its own forked child under a deadline well
  // inside the suite's per-test timeout, so a harness that deadlocks fails
  // by name instead of stalling the whole test.
  const uint64_t DeadlineMs = 20000;
  for (const BenchmarkInfo &Info : allBenchmarks()) {
    if (Info.Name == "collections")
      continue; // union of two rows already covered
    double WallMs = 0;
    EXPECT_EQ(runForkedWithTimeout(Info.Entry, DeadlineMs, &WallMs),
              ForkedOutcome::Completed)
        << Info.Name << " did not finish cleanly (after " << WallMs
        << " ms)";
  }
}

} // namespace
