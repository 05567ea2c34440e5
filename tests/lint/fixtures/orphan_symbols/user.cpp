// The fixture's non-test caller, in the role of a tool or a bench.
#include "fixture.h"

int fixture_user(int x) {
  const rap::fixture::Counter counter(x);
  return rap::fixture::entry(counter.value()) + rap::fixture::a_square().sides();
}
