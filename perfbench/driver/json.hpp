// Minimal streaming JSON writer for the driver's raw output.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const std::string& k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& value(long v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(int v) { return value(static_cast<long>(v)); }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(const std::string& v) {
    comma();
    quote(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string(v)); }
  Json& value(const std::vector<double>& v) {
    begin_array();
    for (double x : v) value(x);
    return end_array();
  }
  template <typename T>
  Json& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
        continue;
      }
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
