#include "fixture.h"

namespace rap::fixture {

int only_tests_call(int x) { return x + 1; }

int doubled(int x) { return 2 * x; }

int entry(int x) { return doubled(x) + 1; }

int Square::sides() const { return 4; }

const Shape& a_square() {
  static const Square square;
  return square;
}

Counter::Counter(int start) : value_(start) {}

int Counter::value() const { return value_; }

}  // namespace rap::fixture
