#include "util/arg_parse.hpp"

#include <cerrno>
#include <cmath>
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace ncb {

ArgParse::ArgParse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

std::optional<std::string> ArgParse::raw(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

bool ArgParse::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string ArgParse::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const auto v = raw(name);
  return v && !v->empty() ? *v : fallback;
}

std::int64_t ArgParse::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": expected an integer, got '" +
                                *v + "'");
  }
  return parsed;
}

double ArgParse::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  // ERANGE underflow still yields a usable (sub)normal value; only reject
  // overflow.
  const bool overflow =
      errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL);
  if (end == v->c_str() || *end != '\0' || overflow) {
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                *v + "'");
  }
  return parsed;
}

void ArgParse::require_known(const std::vector<std::string>& known) const {
  for (const auto& flag : flags_) {
    if (std::find(known.begin(), known.end(), flag.first) == known.end()) {
      throw std::invalid_argument("unknown flag --" + flag.first);
    }
  }
}

bool ArgParse::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  return false;
}

ArgParse parse_flags(int argc, const char* const* argv,
                     const std::vector<std::string>& known) {
  ArgParse args(argc, argv);
  try {
    args.require_known(known);
  } catch (const std::invalid_argument& e) {
    std::cerr << args.program() << ": error: " << e.what() << '\n';
    std::exit(2);
  }
  return args;
}

}  // namespace ncb
