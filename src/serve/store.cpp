#include "src/serve/store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/obs/events.h"
#include "src/obs/telemetry.h"
#include "src/traffic/utility.h"

namespace rap::serve {
namespace {

constexpr char kMagic[8] = {'R', 'A', 'P', 'S', 'E', 'G', '1', '\n'};
/// Fixed header size; every scalar field is 8 bytes except shop/reserved.
constexpr std::size_t kHeaderBytes = 96;
/// The header fields from here on (counts, range, shop, string lengths) are
/// covered by the checksum along with the payload.
constexpr std::size_t kSealedHeaderOffset = 40;

struct SegmentHeader {
  std::uint64_t version = 0;
  std::uint64_t key = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t num_flows = 0;
  double range = 0.0;
  std::uint32_t shop = 0;
  std::uint64_t summary_bytes = 0;
  std::uint64_t utility_bytes = 0;
};

void append_raw(std::string& out, const void* data, std::size_t bytes) {
  out.append(static_cast<const char*>(data), bytes);
}
void append_u64(std::string& out, std::uint64_t value) {
  append_raw(out, &value, sizeof value);
}
void append_u32(std::string& out, std::uint32_t value) {
  append_raw(out, &value, sizeof value);
}
void append_f64(std::string& out, double value) {
  append_raw(out, &value, sizeof value);
}

/// Bounds-checked cursor over a mapped segment; any overrun throws (the
/// caller maps that to "corrupt", never UB).
class SegmentReader {
 public:
  SegmentReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t value = 0;
    copy(&value, sizeof value);
    return value;
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t value = 0;
    copy(&value, sizeof value);
    return value;
  }
  [[nodiscard]] double f64() {
    double value = 0.0;
    copy(&value, sizeof value);
    return value;
  }
  [[nodiscard]] std::string_view bytes(std::size_t n) {
    require(n);
    const std::string_view view(data_ + pos_, n);
    pos_ += n;
    return view;
  }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void require(std::size_t n) const {
    if (n > size_ - pos_) {
      throw std::runtime_error("segment truncated");
    }
  }
  void copy(void* out, std::size_t n) {
    require(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Read-only mapping of one segment file (RAII: munmap + close).
struct MappedSegment {
  const char* data = nullptr;
  std::size_t size = 0;
  int fd = -1;

  MappedSegment() = default;
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;
  ~MappedSegment() {
    if (data != nullptr) {
      ::munmap(const_cast<char*>(data), size);  // NOLINT(*-const-cast)
    }
    if (fd >= 0) ::close(fd);
  }
};

/// Maps `path` read-only. Returns false (leaving `out` empty) when the file
/// does not exist; throws on IO errors and empty files.
bool map_segment(const std::string& path, MappedSegment& out) {
  out.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(*-vararg)
  if (out.fd < 0) {
    if (errno == ENOENT) return false;
    throw std::runtime_error("store: cannot open '" + path + "'");
  }
  struct stat info {};
  if (::fstat(out.fd, &info) != 0 || info.st_size <= 0) {
    throw std::runtime_error("store: cannot stat '" + path + "'");
  }
  out.size = static_cast<std::size_t>(info.st_size);
  void* mapped = ::mmap(nullptr, out.size, PROT_READ, MAP_PRIVATE, out.fd, 0);
  if (mapped == MAP_FAILED) {  // NOLINT(*-int-to-ptr)
    throw std::runtime_error("store: mmap failed for '" + path + "'");
  }
  out.data = static_cast<const char*>(mapped);
  return true;
}

traffic::UtilityKind utility_kind_from_name(std::string_view name) {
  if (name == "threshold") return traffic::UtilityKind::kThreshold;
  if (name == "linear") return traffic::UtilityKind::kLinear;
  if (name == "sqrt") return traffic::UtilityKind::kSqrt;
  throw std::runtime_error("segment names unknown utility");
}

/// Serializes the scenario's inputs into the on-disk byte layout.
std::string serialize_segment(const ServeScenario& scenario) {
  const std::string utility_name = scenario.utility->name();
  std::string payload;
  payload.reserve(scenario.net.num_nodes() * 16 +
                  scenario.net.num_edges() * 16);
  for (const geo::Point& position : scenario.net.positions()) {
    append_f64(payload, position.x);
    append_f64(payload, position.y);
  }
  for (const graph::Edge& edge : scenario.net.edges()) {
    append_u32(payload, edge.from);
    append_u32(payload, edge.to);
    append_f64(payload, edge.length);
  }
  for (const traffic::TrafficFlow& flow : scenario.flows) {
    append_u32(payload, flow.origin);
    append_u32(payload, flow.destination);
    append_f64(payload, flow.daily_vehicles);
    append_f64(payload, flow.passengers_per_vehicle);
    append_f64(payload, flow.alpha);
    append_u64(payload, flow.path.size());
    for (const graph::NodeId node : flow.path) append_u32(payload, node);
  }
  append_raw(payload, scenario.summary.data(), scenario.summary.size());
  append_raw(payload, utility_name.data(), utility_name.size());

  std::string sealed;
  append_u64(sealed, scenario.net.num_nodes());
  append_u64(sealed, scenario.net.num_edges());
  append_u64(sealed, scenario.flows.size());
  append_f64(sealed, scenario.utility->range());
  append_u32(sealed, scenario.shop);
  append_u32(sealed, 0);  // reserved
  append_u64(sealed, scenario.summary.size());
  append_u64(sealed, utility_name.size());

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  append_raw(out, kMagic, sizeof kMagic);
  append_u64(out, kStoreFormatVersion);
  append_u64(out, scenario.key);
  append_u64(out, payload.size());
  append_u64(out, ContentHash().update(sealed).update(payload).digest());
  out += sealed;
  out += payload;
  return out;
}

/// Parses and validates the fixed header. Throws on any mismatch.
SegmentHeader parse_header(SegmentReader& reader, std::uint64_t expected_key,
                           std::size_t file_size) {
  if (reader.bytes(sizeof kMagic) != std::string_view(kMagic, sizeof kMagic)) {
    throw std::runtime_error("segment magic mismatch");
  }
  SegmentHeader header;
  header.version = reader.u64();
  if (header.version != kStoreFormatVersion) {
    throw std::runtime_error("segment format version mismatch");
  }
  header.key = reader.u64();
  if (header.key != expected_key) {
    throw std::runtime_error("segment key does not match its filename");
  }
  header.payload_bytes = reader.u64();
  if (header.payload_bytes != file_size - kHeaderBytes) {
    throw std::runtime_error("segment payload size mismatch");
  }
  header.checksum = reader.u64();
  header.num_nodes = reader.u64();
  header.num_edges = reader.u64();
  header.num_flows = reader.u64();
  header.range = reader.f64();
  header.shop = reader.u32();
  (void)reader.u32();  // reserved
  header.summary_bytes = reader.u64();
  header.utility_bytes = reader.u64();
  // Count sanity before any count-driven loop: ids are 32-bit, and every
  // per-item size below must fit the payload.
  if (header.num_nodes >= graph::kInvalidNode ||
      header.num_edges > header.payload_bytes / 16 ||
      header.num_nodes > header.payload_bytes / 16 ||
      header.num_flows > header.payload_bytes / 40) {
    throw std::runtime_error("segment counts exceed payload");
  }
  return header;
}

/// Rebuilds a full ServeScenario from a validated mapping. Throws on any
/// inconsistency (bad ids, non-walk paths, string overruns).
std::shared_ptr<const ServeScenario> parse_segment(const MappedSegment& map,
                                                   std::uint64_t key) {
  SegmentReader header_reader(map.data, kHeaderBytes);
  const SegmentHeader header = parse_header(header_reader, key, map.size);
  const std::string_view sealed(map.data + kSealedHeaderOffset,
                                kHeaderBytes - kSealedHeaderOffset);
  const std::string_view payload(map.data + kHeaderBytes,
                                 map.size - kHeaderBytes);
  if (ContentHash().update(sealed).update(payload).digest() !=
      header.checksum) {
    throw std::runtime_error("segment checksum mismatch");
  }

  SegmentReader reader(payload.data(), payload.size());
  auto scenario = std::make_shared<ServeScenario>();
  scenario->key = header.key;
  graph::NetworkBuilder net;
  for (std::uint64_t i = 0; i < header.num_nodes; ++i) {
    const double x = reader.f64();
    const double y = reader.f64();
    (void)net.add_node(geo::Point{x, y});
  }
  for (std::uint64_t i = 0; i < header.num_edges; ++i) {
    const graph::NodeId from = reader.u32();
    const graph::NodeId to = reader.u32();
    const double length = reader.f64();
    (void)net.add_edge(from, to, length);
  }
  scenario->net = std::move(net).build();
  scenario->flows.reserve(header.num_flows);
  for (std::uint64_t i = 0; i < header.num_flows; ++i) {
    traffic::TrafficFlow flow;
    flow.origin = reader.u32();
    flow.destination = reader.u32();
    flow.daily_vehicles = reader.f64();
    flow.passengers_per_vehicle = reader.f64();
    flow.alpha = reader.f64();
    const std::uint64_t path_len = reader.u64();
    if (path_len > reader.remaining() / 4) {
      throw std::runtime_error("segment flow path exceeds payload");
    }
    flow.path.resize(path_len);
    for (graph::NodeId& node : flow.path) node = reader.u32();
    scenario->flows.push_back(std::move(flow));
  }
  scenario->summary = std::string(reader.bytes(header.summary_bytes));
  const std::string utility_name(reader.bytes(header.utility_bytes));
  if (reader.remaining() != 0) {
    throw std::runtime_error("segment has trailing bytes");
  }

  scenario->net.check_node(header.shop);
  scenario->shop = header.shop;
  scenario->utility =
      traffic::make_utility(utility_kind_from_name(utility_name), header.range);
  // The derivation reruns the shop's Dijkstras and revalidates every flow
  // against the rebuilt network, so a tampered path that survives the
  // checksum still throws.
  derive_scenario(*scenario);
  return scenario;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Best-effort directory fsync so the rename itself is durable.
void sync_directory(const std::string& directory) {
  const int fd =
      ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);  // NOLINT(*-vararg)
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

std::string key_filename(std::uint64_t key) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx.rseg",
                static_cast<unsigned long long>(key));
  return buffer;
}

}  // namespace

ScenarioStore::ScenarioStore(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code error;
  std::filesystem::create_directories(directory_, error);
  if (error) {
    throw std::runtime_error("store: cannot create directory '" + directory_ +
                             "': " + error.message());
  }
}

std::string ScenarioStore::segment_path(std::uint64_t key) const {
  return directory_ + "/" + key_filename(key);
}

bool ScenarioStore::put(const ServeScenario& scenario) {
  const std::string bytes = serialize_segment(scenario);

  const util::MutexLock lock(mutex_);
  const std::string path = segment_path(scenario.key);
  std::error_code ignored;
  if (std::filesystem::exists(path, ignored)) return false;
  // Crash safety: a segment becomes visible only via the atomic rename of a
  // fully written, fsynced temp file; a crash mid-write leaves a .tmp the
  // key scan ignores.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);  // NOLINT(*-vararg)
  if (fd < 0) {
    ++stats_.io_errors;
    return false;
  }
  const bool written = write_all(fd, bytes) && ::fsync(fd) == 0;
  (void)::close(fd);
  if (!written || ::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    ++stats_.io_errors;
    return false;
  }
  sync_directory(directory_);
  ++stats_.persisted;
  obs::add_counter("serve.store.persisted");
  obs::record_instant("serve.store.persist", "key", key_filename(scenario.key));
  return true;
}

std::shared_ptr<const ServeScenario> ScenarioStore::load(std::uint64_t key) {
  MappedSegment map;
  try {
    if (!map_segment(segment_path(key), map)) return nullptr;  // absent
    std::shared_ptr<const ServeScenario> scenario = parse_segment(map, key);
    {
      const util::MutexLock lock(mutex_);
      ++stats_.rehydrated;
    }
    obs::add_counter("serve.store.rehydrated");
    obs::record_instant("serve.store.rehydrate", "key", key_filename(key));
    return scenario;
  } catch (const std::exception&) {
    // Drop the rejected segment so the rebuild's put() can replace it.
    (void)::unlink(segment_path(key).c_str());
    const util::MutexLock lock(mutex_);
    ++stats_.corrupt;
    return nullptr;
  }
}

std::vector<std::uint64_t> ScenarioStore::keys() const {
  std::vector<std::uint64_t> out;
  std::error_code error;
  std::filesystem::directory_iterator it(directory_, error);
  if (error) return out;
  for (const std::filesystem::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 21 || name.substr(16) != ".rseg") continue;
    std::uint64_t key = 0;
    bool valid = true;
    for (std::size_t i = 0; i < 16; ++i) {
      const char c = name[i];
      key <<= 4U;
      if (c >= '0' && c <= '9') {
        key |= static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        key |= static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        valid = false;
        break;
      }
    }
    if (valid) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ScenarioStore::rehydrate_into(ScenarioCache& cache) {
  std::size_t rehydrated = 0;
  for (const std::uint64_t key : keys()) {
    std::shared_ptr<const ServeScenario> scenario = load(key);
    if (scenario == nullptr) continue;
    cache.insert(std::move(scenario));
    ++rehydrated;
  }
  return rehydrated;
}

ScenarioStore::Stats ScenarioStore::stats() const {
  const util::MutexLock lock(mutex_);
  return stats_;
}

std::size_t ScenarioStore::segment_count() const { return keys().size(); }

}  // namespace rap::serve
