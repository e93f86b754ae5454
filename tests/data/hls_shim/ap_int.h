#pragma once
#include <cstdint>
#include <cstring>
template <int W> using ap_int = int64_t;
