// String helpers shared by serialization and bench table printers.
#pragma once

#include <string>
#include <vector>

namespace cocktail::util {

/// Splits on a delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(const std::string& text,
                                             char delimiter);

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string trim(const std::string& text);

/// printf-style formatting into std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Pads/truncates to a fixed width (left-aligned) for table printing.
[[nodiscard]] std::string pad(const std::string& text, std::size_t width);

}  // namespace cocktail::util
