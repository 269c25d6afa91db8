#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace cocktail::util {

std::vector<std::string> split(const std::string& text, char delimiter) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == delimiter) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t\r\n");
  return text.substr(first, last - first + 1);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return "";
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string pad(const std::string& text, std::size_t width) {
  if (text.size() >= width) return text.substr(0, width);
  return text + std::string(width - text.size(), ' ');
}

}  // namespace cocktail::util
