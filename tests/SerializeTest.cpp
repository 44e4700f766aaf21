//===- tests/SerializeTest.cpp - Cycle report (de)serialization --------------===//

#include "analysis/LogBuilder.h"
#include "fuzzer/ActiveTester.h"
#include "igoodlock/Serialize.h"
#include "interpose/CycleSpecText.h"
#include "runtime/Mutex.h"
#include "runtime/Runtime.h"
#include "runtime/Thread.h"

#include <gtest/gtest.h>

namespace {

using namespace dlf;

void abbaProgram() {
  Mutex A("sa", DLF_SITE());
  Mutex B("sb", DLF_SITE());
  Thread T1([&] {
    for (int I = 0; I != 4; ++I)
      yieldNow();
    MutexGuard First(A, DLF_NAMED_SITE("ser:t1a"));
    MutexGuard Second(B, DLF_NAMED_SITE("ser:t1b"));
  });
  Thread T2([&] {
    MutexGuard First(B, DLF_NAMED_SITE("ser:t2b"));
    MutexGuard Second(A, DLF_NAMED_SITE("ser:t2a"));
  });
  T1.join();
  T2.join();
}

std::vector<AbstractCycle> phaseOneCycles() {
  ActiveTester Tester(abbaProgram);
  return Tester.runPhaseOne().Cycles;
}

TEST(Serialize, RoundTripPreservesKeys) {
  std::vector<AbstractCycle> Original = phaseOneCycles();
  ASSERT_EQ(Original.size(), 1u);

  std::string Text = serializeCycles(Original);
  std::vector<AbstractCycle> Loaded;
  std::string Error;
  ASSERT_TRUE(deserializeCycles(Text, Loaded, &Error)) << Error;
  ASSERT_EQ(Loaded.size(), 1u);

  for (AbstractionKind Kind :
       {AbstractionKind::Trivial, AbstractionKind::KObjectSensitive,
        AbstractionKind::ExecutionIndex}) {
    for (bool UseContext : {false, true}) {
      EXPECT_EQ(Original[0].key(Kind, UseContext),
                Loaded[0].key(Kind, UseContext))
          << abstractionKindName(Kind) << " ctx=" << UseContext;
    }
  }
  EXPECT_EQ(Loaded[0].Components[0].ThreadName,
            Original[0].Components[0].ThreadName);
  EXPECT_EQ(Loaded[0].Multiplicity, Original[0].Multiplicity);
}

TEST(Serialize, LoadedCyclesDriveAFreshPhaseTwo) {
  // The cross-process workflow: serialize, parse, fuzz. (Same process
  // here, but the loaded cycles go through label re-interning exactly as
  // a second process would.)
  std::vector<AbstractCycle> Original = phaseOneCycles();
  std::vector<AbstractCycle> Loaded;
  ASSERT_TRUE(deserializeCycles(serializeCycles(Original), Loaded));

  ActiveTester Tester(abbaProgram);
  CycleFuzzStats Stats = Tester.fuzzCycle(Loaded[0]);
  EXPECT_GT(Stats.ReproducedTarget, 0u);
}

TEST(Serialize, FileRoundTrip) {
  std::vector<AbstractCycle> Original = phaseOneCycles();
  std::string Path = std::string(::testing::TempDir()) + "/dlf_cycles.txt";
  ASSERT_TRUE(saveCyclesToFile(Path, Original));
  std::vector<AbstractCycle> Loaded;
  std::string Error;
  ASSERT_TRUE(loadCyclesFromFile(Path, Loaded, &Error)) << Error;
  EXPECT_EQ(Loaded.size(), Original.size());
  std::remove(Path.c_str());
}

TEST(Serialize, EscapingSurvivesHostileNames) {
  AbstractCycle Cycle;
  for (int Side = 0; Side != 2; ++Side) {
    CycleComponent C;
    C.ThreadName = "weird|name%with\nnewline";
    C.LockName = "lock|%";
    C.ThreadAbs.Index.Elements = {
        Label::intern("site|with|bars%" + std::to_string(Side)).raw(), 3};
    C.LockAbs.KObject.Elements = {Label::intern("alloc%25").raw()};
    C.Context.push_back(Label::intern("ctx with spaces % and | bars"));
    C.Context.push_back(Label::intern("inner" + std::to_string(Side)));
    Cycle.Components.push_back(std::move(C));
  }
  std::vector<AbstractCycle> Out;
  std::string Error;
  ASSERT_TRUE(deserializeCycles(serializeCycles({Cycle}), Out, &Error))
      << Error;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Components[0].ThreadName, "weird|name%with\nnewline");
  EXPECT_EQ(Out[0].key(AbstractionKind::ExecutionIndex, true),
            Cycle.key(AbstractionKind::ExecutionIndex, true));
}

TEST(Serialize, MalformedInputsAreRejected) {
  std::vector<AbstractCycle> Out;
  std::string Error;

  EXPECT_FALSE(deserializeCycles("C|a|b|1|2\n", Out, &Error))
      << "component before CYCLE must fail";
  EXPECT_FALSE(Error.empty());

  EXPECT_FALSE(deserializeCycles("CYCLE|1\nTI|x|1\n", Out, &Error))
      << "abstraction before component must fail";

  EXPECT_FALSE(deserializeCycles("CYCLE|1\nBOGUS|1\n", Out, &Error))
      << "unknown tag must fail";

  EXPECT_FALSE(deserializeCycles(
      "CYCLE|1\nC|t|l|1|2\nX|site\n", Out, &Error))
      << "single-component cycle must fail";

  EXPECT_FALSE(deserializeCycles("CYCLE|1\nC|t%G|l|1|2\nX|s\n", Out,
                                 &Error))
      << "bad escape must fail";

  // Empty document: fine, zero cycles.
  EXPECT_TRUE(deserializeCycles("# dlf cycles v1\n", Out, &Error));
  EXPECT_TRUE(Out.empty());
}

// -- Textual cycle specs (the cycle-spec: / DLF_PRELOAD_CYCLE grammar) -------

TEST(CycleSpecText, FormatThenParseGivesBackTheComponents) {
  using interpose::CycleSpecComponent;
  std::vector<CycleSpecComponent> Spec = {
      {"main#1", "worker+0x1c#2", {"run+0x10", "run+0x2c"}},
      {"spawn+0x8#1", "pool+0x4#1", {"take+0x40"}},
  };
  std::string Text = interpose::formatCycleSpec(Spec);
  EXPECT_EQ(Text, "main#1|worker+0x1c#2|run+0x10,run+0x2c;"
                  "spawn+0x8#1|pool+0x4#1|take+0x40");
  std::vector<CycleSpecComponent> Parsed;
  ASSERT_TRUE(interpose::parseCycleSpec(Text, Parsed)) << Text;
  ASSERT_EQ(Parsed.size(), Spec.size());
  for (size_t I = 0; I != Spec.size(); ++I) {
    EXPECT_EQ(Parsed[I].ThreadAbs, Spec[I].ThreadAbs);
    EXPECT_EQ(Parsed[I].LockAbs, Spec[I].LockAbs);
    EXPECT_EQ(Parsed[I].Context, Spec[I].Context);
  }

  // A Phase I report's spec line parses back to its components.
  std::vector<AbstractCycle> Cycles = phaseOneCycles();
  ASSERT_EQ(Cycles.size(), 1u);
  ASSERT_TRUE(
      interpose::parseCycleSpec(analysis::cycleSpecText(Cycles[0]), Parsed));
  ASSERT_EQ(Parsed.size(), Cycles[0].Components.size());
  for (size_t I = 0; I != Parsed.size(); ++I) {
    const CycleComponent &Comp = Cycles[0].Components[I];
    EXPECT_EQ(Parsed[I].ThreadAbs, Comp.ThreadName);
    EXPECT_EQ(Parsed[I].LockAbs, Comp.LockName);
    ASSERT_EQ(Parsed[I].Context.size(), Comp.Context.size());
    for (size_t S = 0; S != Comp.Context.size(); ++S)
      EXPECT_EQ(Parsed[I].Context[S], Comp.Context[S].text());
  }
}

TEST(CycleSpecText, MalformedSpecsAreRejected) {
  std::vector<interpose::CycleSpecComponent> Out;
  for (const char *Bad : {
           "",                 // set but empty
           "garbage",          // no separators at all
           "t#1|l#1",          // no context field
           "t#1|l#1|",         // empty context
           "t#1|l#1|a,,b",     // empty context site
           "|l#1|a",           // empty thread abstraction
           "t#1||a",           // empty lock abstraction
           "t#1|l#1|a|b",      // a fourth field
           "t#1|l#1|a;",       // trailing empty component
           "t#1|l#1|a;;u|m|b", // empty component in the middle
       })
    EXPECT_FALSE(interpose::parseCycleSpec(Bad, Out)) << "'" << Bad << "'";
}

} // namespace
