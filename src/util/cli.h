// Tiny command-line flag parser for examples/ and bench/ binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags are reported; positional arguments are collected in order.
//
// Malformed input is never silently coerced: duplicate flags are rejected
// at parse time, and the typed getters record an error (retrievable via
// error()) when a value is empty, non-numeric, has trailing junk, or
// overflows the target type — returning the fallback in that case.
// Callers should check error() after the getters they care about (or once
// after all of them; errors accumulate, first one wins).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wrbpg {

// One verb's accepted flag names and positional-argument count (after the
// verb itself), for CliArgs::CheckVerbFlags and CheckVerbArity.
struct VerbFlags {
  std::string verb;
  std::vector<std::string> flags;
  std::size_t min_args = 0;
  std::size_t max_args = 0;
};

class CliArgs {
 public:
  // Parses argv; on malformed input stores an error retrievable via error().
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  // Reads `--threads` and installs it as the process-wide search thread
  // default (SetDefaultSearchThreads), so every engine whose options leave
  // threads at 0 picks it up. `--threads 0` or an absent flag selects the
  // hardware concurrency... unless WRBPG_THREADS is set, which seeded the
  // default at startup and is only overridden by an explicit flag.
  // Negative values record an error. Returns the installed count.
  std::size_t ApplyThreadsFlag() const;

  // Validates every parsed flag against the verb table: flags listed for
  // `verb` (or in `global_flags`, accepted everywhere) pass. A flag that
  // belongs to a DIFFERENT verb records an error naming the owning
  // verb(s) — "flag '--engine' belongs to verb 'schedule', not 'info'" —
  // so the message teaches the fix; a flag no verb owns records a plain
  // unknown-flag error. First offender wins (map order, so the
  // lexicographically smallest flag name); returns false when any flag
  // failed.
  bool CheckVerbFlags(const std::string& verb,
                      const std::vector<VerbFlags>& table,
                      const std::vector<std::string>& global_flags = {}) const;

  // Checks the positionals after the verb (positional()[0]) against the
  // verb's [min_args, max_args]: too many records an error naming the
  // first stray argument — "unexpected argument 'extra' for verb
  // 'schedule' (takes 1)" — and too few one naming the count. A verb
  // absent from the table is not checked. Returns false on an error.
  bool CheckVerbArity(const std::string& verb,
                      const std::vector<VerbFlags>& table) const;

 private:
  void RecordError(const std::string& message) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  // Getters are logically const but must be able to report bad values.
  mutable std::string error_;
};

}  // namespace wrbpg
