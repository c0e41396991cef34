#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace treesched {

namespace {

/// Runs `convert` (std::stoll or std::stod over `value`) and keeps the
/// result only when it consumed the whole value, so "40x", "abc", "" and
/// out-of-range numbers are a CheckError naming the flag.
template <class Convert>
auto parseWhole(const std::string& flag, const std::string& value,
                Convert convert) {
  std::size_t used = 0;
  try {
    const auto parsed = convert(&used);
    if (used == value.size()) return parsed;
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  throw CheckError("bad value for flag --" + flag + ": '" + value + "'");
}

}  // namespace

CliFlags& CliFlags::intFlag(const std::string& name, std::int64_t def,
                            const std::string& help) {
  Flag f;
  f.kind = Kind::Int;
  f.help = help;
  f.intValue = def;
  flags_[name] = std::move(f);
  return *this;
}

CliFlags& CliFlags::doubleFlag(const std::string& name, double def,
                               const std::string& help) {
  Flag f;
  f.kind = Kind::Double;
  f.help = help;
  f.doubleValue = def;
  flags_[name] = std::move(f);
  return *this;
}

CliFlags& CliFlags::boolFlag(const std::string& name, bool def,
                             const std::string& help) {
  Flag f;
  f.kind = Kind::Bool;
  f.help = help;
  f.boolValue = def;
  flags_[name] = std::move(f);
  return *this;
}

CliFlags& CliFlags::stringFlag(const std::string& name, const std::string& def,
                               const std::string& help) {
  Flag f;
  f.kind = Kind::String;
  f.help = help;
  f.stringValue = def;
  flags_[name] = std::move(f);
  return *this;
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(argv[0]);
      return false;
    }
    checkThat(arg.rfind("--", 0) == 0, "flag starts with --: " + arg, __FILE__,
              __LINE__);
    arg = arg.substr(2);
    std::string value;
    bool haveValue = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      haveValue = true;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      throw CheckError("unknown flag --" + arg + "\n" + usage(argv[0]));
    }
    Flag& flag = it->second;
    if (!haveValue && flag.kind != Kind::Bool) {
      checkThat(i + 1 < argc, "flag --" + arg + " needs a value", __FILE__,
                __LINE__);
      value = argv[++i];
      haveValue = true;
    }
    switch (flag.kind) {
      case Kind::Int:
        flag.intValue = parseWhole(arg, value, [&](std::size_t* used) {
          return std::stoll(value, used);
        });
        break;
      case Kind::Double:
        flag.doubleValue = parseWhole(arg, value, [&](std::size_t* used) {
          return std::stod(value, used);
        });
        break;
      case Kind::Bool:
        flag.boolValue = !haveValue || value == "true" || value == "1";
        break;
      case Kind::String:
        flag.stringValue = value;
        break;
    }
  }
  return true;
}

const CliFlags::Flag& CliFlags::find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  checkThat(it != flags_.end(), "flag registered: " + name, __FILE__, __LINE__);
  checkThat(it->second.kind == kind, "flag type matches: " + name, __FILE__,
            __LINE__);
  return it->second;
}

std::int64_t CliFlags::getInt(const std::string& name) const {
  return find(name, Kind::Int).intValue;
}

double CliFlags::getDouble(const std::string& name) const {
  return find(name, Kind::Double).doubleValue;
}

bool CliFlags::getBool(const std::string& name) const {
  return find(name, Kind::Bool).boolValue;
}

const std::string& CliFlags::getString(const std::string& name) const {
  return find(name, Kind::String).stringValue;
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::Int:
        os << "=<int> (default " << flag.intValue << ")";
        break;
      case Kind::Double:
        os << "=<double> (default " << flag.doubleValue << ")";
        break;
      case Kind::Bool:
        os << " (default " << (flag.boolValue ? "true" : "false") << ")";
        break;
      case Kind::String:
        os << "=<string> (default \"" << flag.stringValue << "\")";
        break;
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace treesched
