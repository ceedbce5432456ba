#include "cpm/common/error.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>

namespace cpm {
namespace {

std::string thrown_by(void (*f)()) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(Require, LiteralAndStringMessages) {
  EXPECT_NO_THROW(require(true, "never"));
  EXPECT_EQ(thrown_by([] { require(false, "plain literal"); }), "plain literal");
  EXPECT_EQ(thrown_by([] { require(false, std::string("owned string")); }),
            "owned string");
}

TEST(Require, PartsJoinAsConcatenationWould) {
  // The joined message is byte-identical to the `+` expression it replaces,
  // numbers formatted by std::to_string.
  EXPECT_EQ(thrown_by([] {
              const std::string name = "db";
              require(false, "station '", name, "' needs >= 1 server");
            }),
            std::string("station '") + "db" + "' needs >= 1 server");
  EXPECT_EQ(thrown_by([] {
              const std::size_t line = 42;
              require(false, "trace: line ", line, ": bad timestamp");
            }),
            "trace: line " + std::to_string(std::size_t{42}) + ": bad timestamp");
  EXPECT_EQ(thrown_by([] {
              const std::string context = "evaluate";
              require(false, context, ": -", -3, " / ", 0.5);
            }),
            "evaluate: -" + std::to_string(-3) + " / " + std::to_string(0.5));
}

TEST(Require, PartsAreNotJoinedWhenTheConditionHolds) {
  // A passing check must not touch its parts: the joiner runs only on the
  // throw path. A part whose conversion would be observable proves it.
  struct Loud {
    int* conversions;
    operator std::string_view() const {  // NOLINT(google-explicit-constructor)
      ++*conversions;
      return "loud";
    }
  };
  int conversions = 0;
  const Loud loud{&conversions};
  require(true, "a ", loud, " b");
  EXPECT_EQ(conversions, 0);
  EXPECT_THROW(require(false, "a ", loud, " b"), Error);
  EXPECT_EQ(conversions, 1);
}

}  // namespace
}  // namespace cpm
