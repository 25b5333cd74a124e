/**
 * @file
 * The one RAII install behind every telemetry layer's per-thread
 * routing.
 *
 * trace, prof, xray and metrics each route their hooks to exactly one
 * thread-local "active" object: the tracer, profiler, recorder or
 * collector of the HeteroSystem running on this thread.
 * HeteroSystem::runMany installs them for the run's duration through
 * this template, so parallel sweep points never interleave. There is
 * no process-wide default: a thread with nothing installed records
 * nothing.
 *
 * `Slot` returns a reference to the layer's thread-local pointer;
 * `Compiled` is the layer's compiled-in flag. A null pointer is a
 * no-op, so callers write `Scope guard(wanted ? &obj : nullptr);`
 * unconditionally. Scopes nest: destruction restores whatever the
 * slot held before. With `Compiled` false the slot is never touched
 * and active() is constant-null, so hook sites fold away.
 */

#ifndef HOS_SIM_SCOPED_ACTIVE_HH
#define HOS_SIM_SCOPED_ACTIVE_HH

namespace hos::sim {

template <typename T, T *&(*Slot)(), bool Compiled>
class ScopedActive
{
  public:
    using Target = T;
    static constexpr bool compiled = Compiled;

    /** The object installed on this thread, or nullptr. */
    static T *active()
    {
        if constexpr (Compiled)
            return Slot();
        return nullptr;
    }

    explicit ScopedActive(T *p)
    {
        if constexpr (Compiled) {
            prev_ = Slot();
            if (p != nullptr)
                Slot() = p;
        } else {
            (void)p;
        }
    }

    ~ScopedActive()
    {
        if constexpr (Compiled)
            Slot() = prev_;
    }

    ScopedActive(const ScopedActive &) = delete;
    ScopedActive &operator=(const ScopedActive &) = delete;

  private:
    T *prev_ = nullptr;
};

} // namespace hos::sim

#endif // HOS_SIM_SCOPED_ACTIVE_HH
