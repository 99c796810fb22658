#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <string_view>

#include "util/thread_pool.h"

namespace wrbpg {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      RecordError("bare '--' is not a valid flag");
      return;
    }
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      // `--name value` when the next token is not itself a flag.
      name = std::string(arg);
      value = argv[++i];
    } else {
      name = std::string(arg);
      value = "true";
    }
    const auto [it, inserted] = flags_.emplace(name, std::move(value));
    (void)it;
    if (!inserted) {
      RecordError("duplicate flag '--" + name + "'");
      return;
    }
  }
}

void CliArgs::RecordError(const std::string& message) const {
  if (error_.empty()) error_ = message;
}

bool CliArgs::has(const std::string& name) const {
  return flags_.contains(name);
}

std::string CliArgs::GetString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::GetInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& s = it->second;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc::result_out_of_range) {
    RecordError("flag '--" + name + "': value '" + s +
                "' overflows a 64-bit integer");
    return fallback;
  }
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    RecordError("flag '--" + name + "': expected an integer, got '" + s +
                "'");
    return fallback;
  }
  return value;
}

double CliArgs::GetDouble(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& s = it->second;
  if (s.empty()) {
    RecordError("flag '--" + name + "': expected a number, got empty value");
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    RecordError("flag '--" + name + "': expected a number, got '" + s + "'");
    return fallback;
  }
  return value;
}

std::size_t CliArgs::ApplyThreadsFlag() const {
  if (has("threads")) {
    const std::int64_t n = GetInt("threads", -1);
    if (n < 0) {
      RecordError("flag '--threads': expected a count >= 0, got '" +
                  GetString("threads", "") + "'");
      return DefaultSearchThreads();
    }
    SetDefaultSearchThreads(static_cast<std::size_t>(n));  // 0 -> hardware
  } else if (std::getenv("WRBPG_THREADS") == nullptr) {
    // CLI binaries default to the hardware concurrency; the library-level
    // default stays 1 so embedding code opts in explicitly.
    SetDefaultSearchThreads(0);
  }
  return DefaultSearchThreads();
}

bool CliArgs::CheckVerbFlags(
    const std::string& verb, const std::vector<VerbFlags>& table,
    const std::vector<std::string>& global_flags) const {
  const auto lists = [](const std::vector<std::string>& names,
                        const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const VerbFlags* own = nullptr;
  for (const VerbFlags& entry : table) {
    if (entry.verb == verb) {
      own = &entry;
      break;
    }
  }
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (lists(global_flags, name)) continue;
    if (own != nullptr && lists(own->flags, name)) continue;
    // Name every verb that DOES accept the flag, so the error message
    // teaches the fix instead of just rejecting.
    std::string owners;
    for (const VerbFlags& entry : table) {
      if (entry.verb == verb || !lists(entry.flags, name)) continue;
      if (!owners.empty()) owners += "/";
      owners += "'" + entry.verb + "'";
    }
    if (owners.empty()) {
      RecordError("unknown flag '--" + name + "' for verb '" + verb + "'");
    } else {
      RecordError("flag '--" + name + "' belongs to verb " + owners +
                  ", not '" + verb + "'");
    }
    return false;
  }
  return true;
}

bool CliArgs::CheckVerbArity(const std::string& verb,
                             const std::vector<VerbFlags>& table) const {
  const auto own = std::find_if(
      table.begin(), table.end(),
      [&](const VerbFlags& entry) { return entry.verb == verb; });
  if (own == table.end()) return true;
  const std::size_t args = positional_.empty() ? 0 : positional_.size() - 1;
  const std::string takes =
      own->min_args == own->max_args
          ? std::to_string(own->max_args)
          : std::to_string(own->min_args) + " to " +
                std::to_string(own->max_args);
  if (args > own->max_args) {
    RecordError("unexpected argument '" + positional_[own->max_args + 1] +
                "' for verb '" + verb + "' (takes " + takes + ")");
    return false;
  }
  if (args < own->min_args) {
    RecordError("verb '" + verb + "' takes " + takes + " argument" +
                (own->max_args == 1 ? "" : "s") + ", got " +
                std::to_string(args));
    return false;
  }
  return true;
}

bool CliArgs::GetBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace wrbpg
