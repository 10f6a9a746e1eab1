//! Golden schedule pins: the whole benchmark suite at test scale, at the
//! default 64 MB scratchpad and at a 4 MB one where every program spills,
//! must reproduce these recorded makespans, event counts, traffic
//! breakdowns and stream fingerprints exactly. Any scheduler change that
//! moves a single cycle or byte shows up here as a reviewable diff.

use f1::arch::ArchConfig;
use f1::compiler::movement::TrafficBreakdown;
use f1::compiler::CycleSchedule;

/// FNV-1a over the schedule's stream debug rendering — the repo's
/// fingerprint idiom.
fn fnv_fingerprint(cs: &CycleSchedule) -> u64 {
    let s = format!("{:?}", cs.schedule);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Pin {
    name: &'static str,
    makespan: u64,
    events: usize,
    traffic: TrafficBreakdown,
    fingerprint: u64,
}

const fn traffic(t: [u64; 6]) -> TrafficBreakdown {
    TrafficBreakdown {
        ksh_compulsory: t[0],
        ksh_non_compulsory: t[1],
        input_compulsory: t[2],
        input_non_compulsory: t[3],
        interm_load: t[4],
        interm_store: t[5],
    }
}

const DEFAULT_PAD: &[Pin] = &[
    Pin {
        name: "LoLa-CIFAR Unencryp. Wghts.",
        makespan: 108235,
        events: 26112,
        traffic: traffic([65273856, 0, 8519680, 0, 0, 0]),
        fingerprint: 0x50f17df6c32f6660,
    },
    Pin {
        name: "LoLa-MNIST Unencryp. Wghts.",
        makespan: 15280,
        events: 1594,
        traffic: traffic([9175040, 0, 1376256, 0, 0, 0]),
        fingerprint: 0xcd9590b50f9abfa1,
    },
    Pin {
        name: "LoLa-MNIST Encryp. Wghts.",
        makespan: 25343,
        events: 3196,
        traffic: traffic([17301504, 0, 2621440, 0, 0, 0]),
        fingerprint: 0x8e6885a1b8280553,
    },
    Pin {
        name: "Logistic Regression",
        makespan: 497133,
        events: 201772,
        traffic: traffic([37748736, 0, 9699328, 0, 0, 0]),
        fingerprint: 0xaf2171bf62e12216,
    },
    Pin {
        name: "DB Lookup",
        makespan: 314555,
        events: 123308,
        traffic: traffic([26476544, 0, 16646144, 0, 0, 0]),
        fingerprint: 0x1ab48aae5bb84ea7,
    },
    Pin {
        name: "BGV Bootstrapping",
        makespan: 1144493,
        events: 224858,
        traffic: traffic([94109696, 3276800, 15138816, 5767168, 0, 0]),
        fingerprint: 0x40ed76846a1d0eb2,
    },
    Pin {
        name: "CKKS Bootstrapping",
        makespan: 1654623,
        events: 253330,
        traffic: traffic([93585408, 8650752, 13565952, 7274496, 0, 0]),
        fingerprint: 0xfed1423470883226,
    },
];

const PAD_4MB: &[Pin] = &[
    Pin {
        name: "LoLa-CIFAR Unencryp. Wghts.",
        makespan: 2965411,
        events: 58774,
        traffic: traffic([18350080, 33488896, 8519680, 7798784, 67567616, 59113472]),
        fingerprint: 0xa322fbe8d3ff46b7,
    },
    Pin {
        name: "LoLa-MNIST Unencryp. Wghts.",
        makespan: 235699,
        events: 2048,
        traffic: traffic([9175040, 14876672, 1376256, 0, 0, 0]),
        fingerprint: 0xca628bf6b0e5cf8e,
    },
    Pin {
        name: "LoLa-MNIST Encryp. Wghts.",
        makespan: 392379,
        events: 3690,
        traffic: traffic([17301504, 13172736, 2621440, 0, 3014656, 1310720]),
        fingerprint: 0x66cd043c6d4ded5c,
    },
    Pin {
        name: "Logistic Regression",
        makespan: 11227671,
        events: 212884,
        traffic: traffic([37748736, 78839808, 9699328, 20250624, 265027584, 265027584]),
        fingerprint: 0x8bb49b0e84d755fe,
    },
    Pin {
        name: "DB Lookup",
        makespan: 5102363,
        events: 127510,
        traffic: traffic([26476544, 58392576, 16646144, 65536, 79233024, 79233024]),
        fingerprint: 0xe264ba7348d38d67,
    },
    Pin {
        name: "BGV Bootstrapping",
        makespan: 11042429,
        events: 234000,
        traffic: traffic([94109696, 19136512, 15138816, 589824, 288882688, 285736960]),
        fingerprint: 0x697abe3c53bd8680,
    },
    Pin {
        name: "CKKS Bootstrapping",
        makespan: 12526989,
        events: 264198,
        traffic: traffic([93585408, 47316992, 13565952, 3145728, 321585152, 318963712]),
        fingerprint: 0xcadaf5fdb1a4d640,
    },
];

fn check_suite(arch: &ArchConfig, pins: &[Pin], must_spill: bool) {
    let benches = f1::workloads::all_benchmarks(16);
    assert_eq!(benches.len(), pins.len(), "one pin per benchmark");
    for (b, pin) in benches.iter().zip(pins) {
        assert_eq!(b.name, pin.name, "suite order changed");
        let (_, plan, cs) = f1::compiler::compile(&b.program, arch);
        if must_spill {
            assert!(plan.traffic.non_compulsory() > 0, "{}: this pad must spill", b.name);
        }
        assert_eq!(cs.makespan, pin.makespan, "{}: makespan", b.name);
        assert_eq!(plan.events.len(), pin.events, "{}: plan event count", b.name);
        assert_eq!(plan.traffic, pin.traffic, "{}: traffic breakdown", b.name);
        assert_eq!(
            fnv_fingerprint(&cs),
            pin.fingerprint,
            "{}: StaticSchedule stream fingerprint",
            b.name
        );
    }
}

#[test]
fn suite_schedules_match_golden_pins_at_64mb() {
    check_suite(&ArchConfig::f1_default(), DEFAULT_PAD, false);
}

#[test]
fn suite_schedules_match_golden_pins_at_4mb() {
    check_suite(&ArchConfig::f1_default().with_scratchpad_mb(4), PAD_4MB, true);
}
