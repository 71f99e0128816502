#include "load.hpp"

#include <cstdio>
#include <stdexcept>

#include "compile/registry.hpp"

namespace perfbench {

std::size_t registry_arity(const std::string& function_id) {
  if (oscs::compile::find_function(function_id) != nullptr) return 1;
  if (oscs::compile::find_function2(function_id) != nullptr) return 2;
  if (const auto* fn = oscs::compile::find_function_nd(function_id)) {
    return fn->arity;
  }
  throw std::invalid_argument("unknown registry function '" + function_id +
                              "'");
}

std::vector<std::string> all_registry_ids() {
  std::vector<std::string> ids = oscs::compile::registry_ids();
  for (auto& id : oscs::compile::registry2_ids()) ids.push_back(id);
  for (auto& id : oscs::compile::registry_nd_ids()) ids.push_back(id);
  return ids;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

namespace {

void append_coord_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  char buf[16];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.3f", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  out += ']';
}

std::string to_line(const Request& r) {
  std::string out = "{\"id\":\"r" + std::to_string(r.index) +
                    "\",\"function\":\"" + r.function + "\",";
  if (r.arity == 1) {
    out += "\"xs\":";
    append_coord_array(out, r.coords[0]);
  } else if (r.arity == 2) {
    out += "\"xs\":";
    append_coord_array(out, r.coords[0]);
    out += ",\"ys\":";
    append_coord_array(out, r.coords[1]);
  } else {
    out += "\"inputs\":[";
    for (std::size_t a = 0; a < r.coords.size(); ++a) {
      if (a > 0) out += ',';
      append_coord_array(out, r.coords[a]);
    }
    out += ']';
  }
  out += ",\"stream_lengths\":[" + std::to_string(r.stream_length) +
         "],\"repeats\":" + std::to_string(r.repeats) +
         ",\"seed\":" + std::to_string(r.seed);
  if (r.probe_power_mw.has_value()) {
    char buf[48];
    std::snprintf(buf, sizeof buf, ",\"probe_power_mw\":%.6g",
                  *r.probe_power_mw);
    out += buf;
  }
  out += '}';
  return out;
}

}  // namespace

std::vector<Request> make_requests(const RequestShape& shape,
                                   std::uint64_t seed, std::size_t first,
                                   std::size_t count) {
  if (shape.functions.empty() || shape.probe_powers.empty() ||
      shape.points == 0 || shape.repeats == 0 || shape.stream_length == 0) {
    throw std::invalid_argument("make_requests: empty request shape");
  }
  std::vector<std::size_t> arities;
  for (const std::string& id : shape.functions) {
    arities.push_back(registry_arity(id));
  }
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    Request r;
    r.index = i;
    const std::size_t f = i % shape.functions.size();
    r.function = shape.functions[f];
    r.arity = arities[f];
    r.repeats = shape.repeats;
    r.stream_length = shape.stream_length;
    r.probe_power_mw = shape.probe_powers[i % shape.probe_powers.size()];
    // Request stream: SplitMix64 over a counter keyed by (seed, index).
    std::uint64_t state = mix64(seed ^ mix64(i));
    auto next = [&state] { return state = mix64(state); };
    r.seed = next() >> 2;  // wire seeds stay below 2^62
    r.coords.assign(r.arity, std::vector<double>(shape.points));
    for (auto& axis : r.coords) {
      for (double& v : axis) {
        v = static_cast<double>(1 + next() % 999) / 1000.0;
      }
    }
    r.line = to_line(r);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
