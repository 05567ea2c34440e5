// GPS trace records, modelled on the two datasets the paper evaluates with:
//   Dublin bus trace  — bus id, longitude/latitude, vehicle-journey id
//                       (a journey pattern == one traffic flow);
//   Seattle bus trace — bus id, x/y coordinates, route id
//                       (a route == one traffic flow).
// We use planar coordinates in feet throughout and add a per-trip run id so
// individual vehicle trips can be reassembled without timestamp heuristics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/geo/point.h"

namespace rap::trace {

struct TraceRecord {
  std::uint32_t vehicle_id = 0;  ///< bus id
  std::uint32_t journey_id = 0;  ///< journey pattern / route id (flow key)
  std::uint32_t run_id = 0;      ///< one physical trip of one vehicle
  double timestamp = 0.0;        ///< seconds since the start of the day
  geo::Point position;           ///< feet

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Sorts records by (journey, run, timestamp) — the canonical order the
/// extraction pipeline expects.
void sort_records(std::vector<TraceRecord>& records) noexcept;

/// One vehicle trip: a view into a sorted record vector.
struct RunView {
  std::uint32_t journey_id = 0;
  std::uint32_t run_id = 0;
  std::span<const TraceRecord> records;
};

/// Splits records into runs. The input must be in sort_records' order (the
/// generator emits it); throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<RunView> split_runs(
    std::span<const TraceRecord> records);

}  // namespace rap::trace
