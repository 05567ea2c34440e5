#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/protocol.h"

namespace rap::serve {
namespace {

constexpr const char* kLoadRequest =
    R"({"op":"load","city":"grid","seed":3,"journeys":40,"d":1500})";

JsonValue handle(Server& server, const std::string& line) {
  return parse_json(server.handle_line(line));
}

void expect_ok(const JsonValue& response, const char* where) {
  EXPECT_TRUE(response.as_object().at("ok").as_bool())
      << where << ": " << to_json(response);
}

// Four clients hammer one server with mixed traffic. handle_line must stay
// coherent: every response ok, and the k=5 placement identical no matter
// which thread asked or how the requests interleaved.
TEST(ServeStress, ConcurrentClientsGetConsistentAnswers) {
  Server server;
  expect_ok(handle(server, kLoadRequest), "load");
  // Prime warm state so concurrent places exercise the warm path too.
  const JsonValue reference = handle(server, R"({"op":"place","k":5})");
  expect_ok(reference, "reference place");
  const std::string reference_nodes =
      to_json(reference.as_object().at("result").as_object().at("nodes"));

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 25;
  std::mutex mutex;
  std::set<std::string> place_answers;
  std::vector<std::string> failures;

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &mutex, &place_answers, &failures, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        std::string line;
        switch (i % 4) {
          case 0:
            line = R"({"op":"place","k":5})";
            break;
          case 1:
            line = R"({"op":"place","k":)" + std::to_string(2 + i % 3) + "}";
            break;
          case 2:
            line = R"({"op":"evaluate","nodes":[1,7,42]})";
            break;
          default:
            line = R"({"op":"stats"})";
            break;
        }
        const JsonValue response = parse_json(server.handle_line(line));
        const JsonValue::Object& object = response.as_object();
        if (!object.at("ok").as_bool()) {
          const std::lock_guard<std::mutex> lock(mutex);
          failures.push_back("thread " + std::to_string(t) + ": " +
                             to_json(response));
          continue;
        }
        if (i % 4 == 0) {
          const std::lock_guard<std::mutex> lock(mutex);
          place_answers.insert(
              to_json(object.at("result").as_object().at("nodes")));
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  EXPECT_TRUE(failures.empty()) << failures.front();
  ASSERT_EQ(place_answers.size(), 1U)
      << "k=5 placement diverged across threads";
  EXPECT_EQ(*place_answers.begin(), reference_nodes);
}

}  // namespace
}  // namespace rap::serve
