//===- tests/SupportTest.cpp - support/ unit tests --------------------------===//

#include "support/Env.h"
#include "support/JsonEscape.h"
#include "support/Rng.h"
#include "support/Table.h"

#include "event/Label.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

namespace {

using namespace dlf;

// -- Rng ---------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng A(12345), B(12345);
  for (int I = 0; I != 1000; ++I)
    ASSERT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  bool Diverged = false;
  for (int I = 0; I != 16 && !Diverged; ++I)
    Diverged = (A.next() != B.next());
  EXPECT_TRUE(Diverged);
}

TEST(Rng, ReseedRestartsStream) {
  Rng A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng R(99);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 7ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      ASSERT_LT(R.nextBelow(Bound), Bound) << "bound " << Bound;
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng R(5);
  for (int I = 0; I != 50; ++I)
    ASSERT_EQ(R.nextBelow(1), 0u);
}

TEST(Rng, NextIndexCoversAllSlots) {
  // Every index of a small range should be hit within a few hundred draws.
  Rng R(31337);
  std::set<size_t> Seen;
  for (int I = 0; I != 500; ++I)
    Seen.insert(R.nextIndex(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng R(4);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    ASSERT_GE(D, 0.0);
    ASSERT_LT(D, 1.0);
  }
}

TEST(Rng, NextBoolEdgeCases) {
  Rng R(8);
  for (int I = 0; I != 100; ++I) {
    ASSERT_FALSE(R.nextBool(0.0));
    ASSERT_TRUE(R.nextBool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyFair) {
  Rng R(17);
  int Heads = 0;
  for (int I = 0; I != 10000; ++I)
    Heads += R.nextBool(0.5) ? 1 : 0;
  EXPECT_GT(Heads, 4500);
  EXPECT_LT(Heads, 5500);
}

TEST(Rng, UniformityChiSquaredish) {
  // 8 buckets over 8000 draws: each bucket within 3x sigma of 1000.
  Rng R(2024);
  int Buckets[8] = {0};
  for (int I = 0; I != 8000; ++I)
    ++Buckets[R.nextBelow(8)];
  for (int Count : Buckets) {
    EXPECT_GT(Count, 850);
    EXPECT_LT(Count, 1150);
  }
}

// -- Env ---------------------------------------------------------------------

TEST(Env, StringDefaultsAndValues) {
  unsetenv("DLF_TEST_ENV");
  EXPECT_EQ(envString("DLF_TEST_ENV", "fallback"), "fallback");
  setenv("DLF_TEST_ENV", "value", 1);
  EXPECT_EQ(envString("DLF_TEST_ENV", "fallback"), "value");
  setenv("DLF_TEST_ENV", "", 1);
  EXPECT_EQ(envString("DLF_TEST_ENV", "fallback"), "fallback");
  unsetenv("DLF_TEST_ENV");
}

TEST(Env, IntParsing) {
  setenv("DLF_TEST_ENV", "42", 1);
  EXPECT_EQ(envInt("DLF_TEST_ENV", -1), 42);
  setenv("DLF_TEST_ENV", "-7", 1);
  EXPECT_EQ(envInt("DLF_TEST_ENV", 0), -7);
  setenv("DLF_TEST_ENV", "notanumber", 1);
  EXPECT_EQ(envInt("DLF_TEST_ENV", 13), 13);
  setenv("DLF_TEST_ENV", "12abc", 1);
  EXPECT_EQ(envInt("DLF_TEST_ENV", 13), 13) << "trailing junk must not parse";
  unsetenv("DLF_TEST_ENV");
  EXPECT_EQ(envInt("DLF_TEST_ENV", 99), 99);
}

TEST(Env, UIntRejectsNegative) {
  setenv("DLF_TEST_ENV", "-5", 1);
  EXPECT_EQ(envUInt("DLF_TEST_ENV", 3), 3u);
  setenv("DLF_TEST_ENV", "5", 1);
  EXPECT_EQ(envUInt("DLF_TEST_ENV", 3), 5u);
  unsetenv("DLF_TEST_ENV");
}

TEST(Env, BoolSpellings) {
  for (const char *True : {"1", "true", "TRUE", "yes", "on", "On"}) {
    setenv("DLF_TEST_ENV", True, 1);
    EXPECT_TRUE(envBool("DLF_TEST_ENV", false)) << True;
  }
  for (const char *False : {"0", "false", "no", "off", "OFF"}) {
    setenv("DLF_TEST_ENV", False, 1);
    EXPECT_FALSE(envBool("DLF_TEST_ENV", true)) << False;
  }
  setenv("DLF_TEST_ENV", "maybe", 1);
  EXPECT_TRUE(envBool("DLF_TEST_ENV", true));
  EXPECT_FALSE(envBool("DLF_TEST_ENV", false));
  unsetenv("DLF_TEST_ENV");
}

// -- JsonEscape --------------------------------------------------------------

TEST(JsonEscape, ShortEscapesAndControlCharacters) {
  EXPECT_EQ(jsonEscape("plain name_1"), "plain name_1");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  // Newline, carriage return and tab get their short forms, not \u00XX.
  EXPECT_EQ(jsonEscape("x\ny\rz\tw"), "x\\ny\\rz\\tw");
  EXPECT_EQ(jsonEscape(std::string("\x01\x1f\x00", 3)),
            "\\u0001\\u001f\\u0000");
  // Bytes at or above 0x20, UTF-8 included, pass through.
  EXPECT_EQ(jsonEscape("caf\xc3\xa9 ~\x7f"), "caf\xc3\xa9 ~\x7f");
  std::string Out = "{";
  jsonEscapeTo(Out, "k\n");
  EXPECT_EQ(Out, "{k\\n");
}

TEST(JsonEscape, MetricsExportUsesTheSharedForm) {
  telemetry::MetricsSnapshot Snap;
  Snap.Counters["odd\nname"] = 1;
  EXPECT_NE(Snap.toJson().find("\"odd\\nname\":1"), std::string::npos)
      << Snap.toJson();
}

// -- Table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table T({"Name", "Value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name", "23456"});
  std::string Out = T.toString();
  // Header separator present, all rows same width.
  EXPECT_NE(Out.find("| Name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  size_t FirstLine = Out.find('\n');
  size_t Width = FirstLine;
  size_t Pos = 0;
  int Lines = 0;
  while (Pos < Out.size()) {
    size_t End = Out.find('\n', Pos);
    if (End == std::string::npos)
      break;
    EXPECT_EQ(End - Pos, Width) << "ragged table row";
    Pos = End + 1;
    ++Lines;
  }
  EXPECT_EQ(Lines, 4); // header + separator + 2 rows
}

TEST(Table, PadsShortRows) {
  Table T({"A", "B", "C"});
  T.addRow({"only-one"});
  std::string Out = T.toString();
  EXPECT_NE(Out.find("only-one"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(1.0, 3), "1.000");
  EXPECT_EQ(Table::fmt(uint64_t(42)), "42");
}

// -- Label -------------------------------------------------------------------

TEST(Label, InternIsIdempotent) {
  Label A = Label::intern("tests/label/one");
  Label B = Label::intern("tests/label/one");
  Label C = Label::intern("tests/label/two");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A.text(), "tests/label/one");
}

TEST(Label, InvalidLabel) {
  Label Default;
  EXPECT_FALSE(Default.isValid());
  EXPECT_EQ(Default.text(), "<none>");
}

TEST(Label, TextByRawOutOfRange) {
  EXPECT_EQ(Label::textByRaw(0xFFFFFFFF), "<none>");
}

TEST(Label, FromRawRoundTrips) {
  Label A = Label::intern("tests/label/roundtrip");
  EXPECT_EQ(Label::fromRaw(A.raw()), A);
}

TEST(Label, ConcurrentInterningIsConsistent) {
  // Many threads interning overlapping strings must agree on the ids.
  constexpr int Threads = 8;
  constexpr int Strings = 64;
  std::vector<std::vector<uint32_t>> Results(Threads,
                                             std::vector<uint32_t>(Strings));
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([T, &Results] {
      for (int S = 0; S != Strings; ++S)
        Results[T][S] =
            Label::intern("tests/label/concurrent" + std::to_string(S)).raw();
    });
  }
  for (auto &W : Workers)
    W.join();
  for (int T = 1; T != Threads; ++T)
    EXPECT_EQ(Results[T], Results[0]);
}

TEST(Label, SiteMacroCachesPerLine) {
  Label A = DLF_SITE();
  Label B = DLF_SITE();
  EXPECT_NE(A, B) << "different lines must differ";
  auto Twice = [] { return DLF_SITE(); };
  EXPECT_EQ(Twice(), Twice()) << "same line must cache";
  EXPECT_EQ(DLF_NAMED_SITE("tests/named"), Label::intern("tests/named"));
}

TEST(Env, ParseUint64StrictAcceptsOnlyCleanDecimals) {
  uint64_t V = 0;
  EXPECT_TRUE(parseUint64Strict("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUint64Strict("5000", V));
  EXPECT_EQ(V, 5000u);
  EXPECT_TRUE(parseUint64Strict("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);

  // Everything atoi would silently misparse must be rejected outright.
  for (const char *Bad :
       {"", "abc", "12x", "-3", "+3", " 7", "7 ", "1e3", "0x10",
        "18446744073709551616", static_cast<const char *>(nullptr)})
    EXPECT_FALSE(parseUint64Strict(Bad, V)) << (Bad ? Bad : "<null>");
}

} // namespace
