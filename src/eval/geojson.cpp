#include "src/eval/geojson.h"

#include <sstream>

#include "src/util/strings.h"
#include "src/util/text_file.h"

namespace rap::eval {
namespace {

std::string coord(const geo::Point& p) {
  // Built piecewise: GCC 12's -Werror=restrict misfires on the
  // operator+(const char*, std::string&&) chain at -O3.
  std::string out = "[";
  out += util::format_fixed(p.x, 2);
  out += ",";
  out += util::format_fixed(p.y, 2);
  out += "]";
  return out;
}

class FeatureWriter {
 public:
  void add(const std::string& geometry, const std::string& properties) {
    if (!first_) out_ << ",";
    first_ = false;
    out_ << R"({"type":"Feature","geometry":)" << geometry
         << R"(,"properties":)" << properties << "}";
  }

  [[nodiscard]] std::string finish() const {
    return R"({"type":"FeatureCollection","features":[)" + out_.str() + "]}";
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string point_geometry(const geo::Point& p) {
  return R"({"type":"Point","coordinates":)" + coord(p) + "}";
}

std::string line_geometry(const graph::RoadNetwork& net,
                          std::span<const graph::NodeId> nodes) {
  std::string coords = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) coords += ",";
    coords += coord(net.position(nodes[i]));
  }
  coords += "]";
  return R"({"type":"LineString","coordinates":)" + coords + "}";
}

}  // namespace

std::string to_geojson(const graph::RoadNetwork& net,
                       std::span<const traffic::TrafficFlow> flows,
                       graph::NodeId shop,
                       std::span<const graph::NodeId> placement,
                       const GeoJsonOptions& options) {
  FeatureWriter features;

  if (options.include_streets) {
    for (const graph::Edge& e : net.edges()) {
      // Emit each two-way pair once (the lower-id direction).
      if (e.from > e.to) continue;
      const graph::NodeId ends[] = {e.from, e.to};
      features.add(line_geometry(net, ends),
                   R"({"kind":"street","length":)" +
                       util::format_fixed(e.length, 2) + "}");
    }
  }
  for (const traffic::TrafficFlow& flow : flows) {
    if (flow.daily_vehicles < options.min_flow_vehicles) continue;
    features.add(line_geometry(net, flow.path),
                 R"({"kind":"flow","daily_vehicles":)" +
                     util::format_fixed(flow.daily_vehicles, 2) +
                     R"(,"population":)" +
                     util::format_fixed(flow.population(), 2) + "}");
  }
  if (shop != graph::kInvalidNode) {
    features.add(point_geometry(net.position(shop)), R"({"kind":"shop"})");
  }
  for (std::size_t i = 0; i < placement.size(); ++i) {
    features.add(point_geometry(net.position(placement[i])),
                 R"({"kind":"rap","order":)" + std::to_string(i + 1) + "}");
  }
  return features.finish();
}

void write_geojson(const std::filesystem::path& path,
                   const graph::RoadNetwork& net,
                   std::span<const traffic::TrafficFlow> flows,
                   graph::NodeId shop,
                   std::span<const graph::NodeId> placement,
                   const GeoJsonOptions& options) {
  const std::string text = to_geojson(net, flows, shop, placement, options);
  util::write_text_file("write_geojson", path,
                        [&](std::ostream& out) { out << text; });
}

}  // namespace rap::eval
