// The fixture's test object: the only caller of only_tests_call.
#include "fixture.h"

int fixture_test_caller() { return rap::fixture::only_tests_call(1); }
