// Minimal --name=value command-line flag parsing for benches and examples.
#ifndef MMLPT_COMMON_FLAGS_H
#define MMLPT_COMMON_FLAGS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mmlpt {

/// Parses flags of the form `--name=value` or `--name value`; anything else
/// is kept as a positional argument. Unknown flags are allowed (the benches
/// ignore them); a tool that rejects them checks names() against the flags
/// it takes. The bare family switches `-4` / `-6` are recognised anywhere
/// and map to `--family 4|6` (last one wins), so they never get consumed as
/// another flag's value.
class Flags {
 public:
  Flags(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// Every flag name given, without its dashes, in sorted order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mmlpt

#endif  // MMLPT_COMMON_FLAGS_H
