#pragma once
#include <algorithm>
#include <cmath>
namespace hls { using std::exp; using std::max; using std::min; using std::sqrt; }
