/**
 * @file
 * ScopedEnv: sets one environment variable for a test's scope and
 * restores its previous value (or unsets it) on exit, so a test that
 * exercises an environment knob leaves the rest of the binary's tests
 * the environment they started with.
 */
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace recsim {

class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (old_)
            setenv(name_.c_str(), old_->c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    std::string name_;
    std::optional<std::string> old_;
};

} // namespace recsim
