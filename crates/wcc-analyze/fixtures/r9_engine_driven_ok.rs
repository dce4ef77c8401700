// wcc-fixture-path: crates/core/src/sim.rs
//! Known-GOOD: a driver that only moves effects and replies. Functions
//! and fields that merely share a name with a `Policy` method are not
//! policy calls; this fixture must produce **zero** findings.

struct Cache {
    engine: Engine<UnboundedStore>,
    on_fetch: u64,
}

fn decide(effect: Effect) -> bool {
    matches!(effect, Effect::Serve(_))
}

impl Cache {
    fn request(&mut self, file: FileId, now: SimTime, probe: &mut dyn Probe) -> bool {
        let effect = self.engine.request(file, 0, now, None, probe);
        self.on_fetch += 1;
        decide(effect)
    }

    fn reply(&mut self, file: FileId, now: SimTime, reply: Reply, probe: &mut dyn Probe) {
        self.engine.apply(file, 0, now, reply, probe);
        self.engine.invalidate(file, now, 43, probe);
    }
}
