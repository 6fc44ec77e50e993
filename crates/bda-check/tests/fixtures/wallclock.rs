// Fixture for the `wallclock` rule.

pub fn hit_instant() -> std::time::Instant {
    std::time::Instant::now() // line 4: positive hit
}

pub fn hit_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now() // line 8: positive hit
}

pub fn allowed_telemetry() -> std::time::Instant {
    std::time::Instant::now() // bda-check: allow(wallclock) — fixture: telemetry column (line 12)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_in_test_region() {
        let _ = std::time::Instant::now(); // exempt: inside #[cfg(test)]
    }
}
