#pragma once
// Tests-only unwrapping of the core Result<T> channel.
//
//   const auto res = must(core::try_sample_select<float>(dev, data, k, cfg));
//
// yields the value, or records a test failure carrying the Status message
// at the caller's file:line and abandons the test body (GoogleTest turns
// the escaping exception into a second failure and moves on to the next
// test).  Tests that expect a failure check the code instead:
//
//   EXPECT_EQ(core::try_sample_select<float>(dev, data, n, {}).error(),
//             core::SelectError::rank_out_of_range);

#include <gtest/gtest.h>

#include <source_location>
#include <stdexcept>
#include <utility>

#include "core/status.hpp"

template <typename T>
[[nodiscard]] T must(gpusel::core::Result<T> r,
                     std::source_location loc = std::source_location::current()) {
    if (!r.ok()) {
        ADD_FAILURE_AT(loc.file_name(), static_cast<int>(loc.line()))
            << "unexpected " << r.status().to_message();
        throw std::runtime_error(r.status().to_message());
    }
    return r.take();
}
