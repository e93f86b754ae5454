#pragma once
#include <deque>
namespace hls { template <typename T> struct stream {
  std::deque<T> q;
  T read() { T v = q.front(); q.pop_front(); return v; }
  void write(const T &v) { q.push_back(v); }
}; }
