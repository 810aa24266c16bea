#include "common/flags.h"

#include <cstdlib>

#include "common/error.h"

namespace mmlpt {

namespace {

bool looks_like_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

bool is_family_switch(const std::string& arg) {
  return arg == "-4" || arg == "-6";
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The traceroute-style family switches are the one single-dash form
    // we accept; mapping them here keeps them from being swallowed as
    // the value of a preceding bare flag ("--real -6"). Last one wins.
    if (is_family_switch(arg)) {
      values_["family"] = arg.substr(1);
      continue;
    }
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1]) &&
               !is_family_switch(argv[i + 1])) {
      values_[arg.substr(2)] = argv[++i];
    } else {
      values_[arg.substr(2)] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw ConfigError("flag --" + name + " expects an integer, got '" +
                      it->second + "'");
  }
}

std::uint64_t Flags::get_uint(const std::string& name,
                              std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stoull(it->second);
  } catch (const std::exception&) {
    throw ConfigError("flag --" + name + " expects an unsigned integer, got '" +
                      it->second + "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw ConfigError("flag --" + name + " expects a number, got '" +
                      it->second + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& entry : values_) names.push_back(entry.first);
  return names;
}

}  // namespace mmlpt
