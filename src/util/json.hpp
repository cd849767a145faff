// The JSON string quoting the observability exporters share (metrics
// snapshots and Chrome trace documents).  Only '"' and '\' are escaped: the
// strings quoted here are metric, span, category and process names chosen
// by the code, never arbitrary user text with control characters.
#pragma once

#include <string>
#include <string_view>

namespace critter::util {

/// `s` as a JSON string literal, quotes included.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace critter::util
