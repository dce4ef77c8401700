// wcc-fixture-path: crates/liveserve/src/proxy.rs
//! Known-bad: a driver asking the policy itself. Each call is a piece of
//! the request decision growing back outside `consistency::Engine`.

struct Shard {
    policy: Box<dyn Policy + Send>,
}

impl Shard {
    fn lookup(&mut self, entry: &EntryMeta, ctx: &RequestCtx) -> bool {
        self.policy.decide(entry, ctx).serves_locally() //~ r9
    }

    fn on_304(&mut self, class: usize, delay: SimDuration) {
        self.policy.on_validation(class, false); //~ r9
        self.policy.on_fetch(class, delay); //~ r9
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_ask_a_policy_directly() {
        assert!(FixedTtl::hours(1).decide(&entry(), &ctx()).serves_locally());
    }
}
