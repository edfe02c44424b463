// Minimal JSON parser for tests — just enough to validate the JSON the
// trace exporter and the bench harness write (objects, arrays, strings with
// escapes, numbers, bools, null).
#pragma once

#include <cctype>
#include <cstddef>
#include <string>

namespace json {

struct Parser {
  const std::string& s;
  std::size_t i = 0;

  explicit Parser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool literal(const char* lit) {
    const std::string l = lit;
    if (s.compare(i, l.size(), l) != 0) return false;
    i += l.size();
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    bool digits = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s[i]))) digits = true;
      ++i;
    }
    return digits && i > start;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    return eat('"');
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      if (!string()) return false;
      if (!eat(':')) return false;
      if (!value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool parse_document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

}  // namespace json
