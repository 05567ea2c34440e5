// A src/-like module for the src_orphan_symbols self-test. only_tests_call
// is reached by nothing but test_caller.cpp, so the scan must report it.
// The rest are reached by user.cpp in ways that leave no reference to the
// function itself, or none that a naive scan would match, and must not be
// reported.
#pragma once

namespace rap::fixture {

/// Called only by the fixture's test object.
int only_tests_call(int x);

/// Inlined into entry(), its only caller, at -O2: no relocation names it.
int doubled(int x);
int entry(int x);

class Shape {
 public:
  virtual ~Shape() = default;
  [[nodiscard]] virtual int sides() const = 0;
};

/// Square::sides is reached only through Square's vtable.
class Square final : public Shape {
 public:
  [[nodiscard]] int sides() const override;
};

[[nodiscard]] const Shape& a_square();

/// A constructor (its complete and base variants share one address) and a
/// const member function.
class Counter {
 public:
  explicit Counter(int start);
  [[nodiscard]] int value() const;

 private:
  int value_;
};

}  // namespace rap::fixture
