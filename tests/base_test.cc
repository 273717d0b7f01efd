#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/clock.h"
#include "base/hash.h"
#include "base/intern.h"
#include "base/macros.h"
#include "base/mutex.h"
#include "base/result.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/thread_annotations.h"

namespace papyrus {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing cell");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing cell");
  EXPECT_EQ(s.ToString(), "NotFound: missing cell");
}

TEST(StatusTest, AllFactoryFunctionsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::PermissionDenied("x").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  PAPYRUS_ASSIGN_OR_RETURN(*out, HalfOf(x));
  return Status::OK();
}

TEST(MacrosTest, AssignOrReturnPropagatesValueAndError) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status bad = UseHalf(3, &out);
  EXPECT_TRUE(bad.IsInvalidArgument());
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto v = Split("a::b:", ':');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[2], "b");
  EXPECT_EQ(v[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto v = SplitWhitespace("  set   a\t27\n");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "set");
  EXPECT_EQ(v[1], "a");
  EXPECT_EQ(v[2], "27");
}

TEST(StringsTest, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("ResumedStep 3", "ResumedStep"));
  EXPECT_FALSE(StartsWith("Re", "ResumedStep"));
  EXPECT_TRUE(EndsWith("cell.blif", ".blif"));
  EXPECT_FALSE(EndsWith("blif", "cell.blif"));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
}

// The whitespace the line parsers split on is exactly the C locale's six
// bytes; anything else (NUL, DEL, the 0x85 and 0xA0 bytes) is field text.
TEST(StringsTest, WhitespaceIsTheSixCBytes) {
  auto v = SplitWhitespace(" a\tb\nc\vd\fe\rf ");
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(Join(v, ","), "a,b,c,d,e,f");
  const std::string others = std::string("x\0y", 3) + "\x7f" + "z\x85" +
                             "w\xa0" + "v";
  ASSERT_EQ(SplitWhitespace(others).size(), 1u);
  EXPECT_EQ(SplitWhitespace(others)[0], others);
  EXPECT_TRUE(SplitWhitespace(" \t\n\v\f\r").empty());
  EXPECT_EQ(Trim("\v\f\r x \t\n"), "x");
  EXPECT_EQ(Trim("\x7fx\xa0"), "\x7fx\xa0");
}

TEST(StringsTest, ParseInt64AcceptsSignsAndSurroundingWhitespace) {
  int64_t v = 1;
  EXPECT_TRUE(ParseInt64("+5", &v));
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(ParseInt64("-0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("\t\n 17\r\v\f", &v));
  EXPECT_EQ(v, 17);
  EXPECT_TRUE(ParseInt64("007", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  v = 3;
  for (const char* bad :
       {"9223372036854775808", "-9223372036854775809", "99999999999999999999",
        "+", "-", "+-1", "-+1", "--1", "++1", "+ 1", "- 1", "1 2", "1-",
        "0x10", "1e3", "1.0", "5x", " 5 x", "\x7f" "5"}) {
    EXPECT_FALSE(ParseInt64(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 3);  // a rejected parse leaves the output alone
  EXPECT_EQ(ParseI64("12x"), 0);
  EXPECT_EQ(ParseI64(" -12 "), -12);
}

TEST(StringsTest, Fnv1aIsDeterministicAndSpreads) {
  EXPECT_EQ(Fnv1a("espresso"), Fnv1a("espresso"));
  EXPECT_NE(Fnv1a("espresso"), Fnv1a("espressp"));
  EXPECT_NE(Fnv1a(""), Fnv1a("a"));
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceSeconds(2);
  EXPECT_EQ(clock.NowMicros(), 150 + 2000000);
  EXPECT_EQ(clock.NowSeconds(), 2);
}

TEST(ClockTest, SystemClockMovesForward) {
  SystemClock* clock = SystemClock::Default();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 0);
}

// Every thread is the engine thread until marked; the mark is scoped and
// thread-local.
TEST(ThreadRoleTest, EveryThreadIsEngineUntilMarked) {
  EXPECT_TRUE(base::OnEngineThread());
  {
    base::ScopedWorkerThread mark;
    EXPECT_FALSE(base::OnEngineThread());
  }
  EXPECT_TRUE(base::OnEngineThread());

  bool fresh_thread_is_engine = false;
  bool marked_thread_is_engine = true;
  std::thread([&] {
    fresh_thread_is_engine = base::OnEngineThread();
    base::ScopedWorkerThread mark;
    marked_thread_is_engine = base::OnEngineThread();
  }).join();
  EXPECT_TRUE(fresh_thread_is_engine);
  EXPECT_FALSE(marked_thread_is_engine);
}

TEST(ThreadRoleTest, AssertEngineThreadPassesOnEngineThread) {
  base::AssertEngineThread("ThreadRoleTest");  // must not abort
}

// The runtime half of the contract: an engine-only entry point reached
// from a marked pool worker dies loudly instead of corrupting state.
TEST(ThreadRoleDeathTest, AssertEngineThreadAbortsOnWorkerThread) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        base::ScopedWorkerThread mark;
        base::AssertEngineThread("DeathTestProbe");
      },
      "engine-thread contract violated: DeathTestProbe");
}

// ---------------------------------------------------------------------------
// SHA-256 (base/hash.h) — FIPS 180-4 test vectors. These pin the exact
// digest function: content-addressed store keys and blob names derive
// from it, so a change here silently orphans every existing store.
// ---------------------------------------------------------------------------

TEST(Sha256Test, EmptyInputVector) {
  EXPECT_EQ(
      Sha256Hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(
      Sha256Hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  // 56 bytes: forces the length padding into a second compression block.
  EXPECT_EQ(
      Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAsVector) {
  std::string input(1000000, 'a');
  EXPECT_EQ(
      Sha256Hex(input),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalUpdatesMatchOneShot) {
  Sha256 hasher;
  hasher.Update("ab");
  hasher.Update("");
  hasher.Update("c");
  EXPECT_EQ(hasher.FinishHex(), Sha256Hex("abc"));
  // Reset() restarts the stream; split points never affect the digest.
  hasher.Reset();
  std::string long_input(130, 'x');  // straddles two 64-byte blocks
  hasher.Update(long_input.substr(0, 63));
  hasher.Update(long_input.substr(63));
  EXPECT_EQ(hasher.FinishHex(), Sha256Hex(long_input));
}

TEST(ArenaTest, CopiedStringsStayStableAcrossChunkGrowth) {
  base::Arena arena(64);  // tiny chunks force frequent growth
  std::vector<std::string_view> views;
  for (int i = 0; i < 200; ++i) {
    views.push_back(
        arena.CopyString("cell" + std::to_string(i) + ":view:contents"));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(views[i], "cell" + std::to_string(i) + ":view:contents");
  }
  // Oversized allocations (bigger than a chunk) still work.
  std::string big(1000, 'q');
  EXPECT_EQ(arena.CopyString(big), big);
  EXPECT_GT(arena.bytes_allocated(), big.size());
}

TEST(InternTableTest, SymbolsAreDenseStableAndDeduplicated) {
  base::InternTable table;
  base::Symbol a = table.Intern("adder:logic:contents");
  base::Symbol b = table.Intern("shifter:logic:contents");
  EXPECT_NE(a, b);
  // Interning again returns the same symbol; no new storage.
  size_t bytes = table.arena_bytes();
  EXPECT_EQ(table.Intern("adder:logic:contents"), a);
  EXPECT_EQ(table.arena_bytes(), bytes);
  EXPECT_EQ(table.size(), 2u);

  EXPECT_EQ(table.StringOf(a), "adder:logic:contents");
  EXPECT_EQ(table.StringOf(b), "shifter:logic:contents");
  EXPECT_EQ(table.Find("adder:logic:contents"), a);
  EXPECT_EQ(table.Find("never interned"), base::kNoSymbol);
}

}  // namespace
}  // namespace papyrus
