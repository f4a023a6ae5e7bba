//! Default-seed reference table: the committed `results/*` rows the
//! benchmark's jobs must reproduce exactly.
//!
//! Each entry names a job label and the machine seed the experiment
//! used for it at its default seed. Simulated outputs depend only on
//! the job and its machine seed, so a job run at that seed must give
//! these values bit for bit; at any other seed the entry does not
//! apply. The crate's tests check every value against `results/*.json`.

/// One reference row: job label, machine seed, and `(metric, value)`
/// pairs as `results/*.json` names them.
pub type Entry = (&'static str, u64, &'static [(&'static str, f64)]);

/// LCK `high` rows (`results/lck.json`): machine seed `5600 + cells`.
const LCK: &[Entry] = &[
    (
        "LCK hw_lock high p=256",
        5856,
        &[
            ("time_per_acquire_us", 212.33906249999998),
            ("rmr_per_acquire", 275.4384765625),
        ],
    ),
    (
        "LCK hw_lock high p=512",
        6112,
        &[
            ("time_per_acquire_us", 316.4528076171875),
            ("rmr_per_acquire", 453.28857421875),
        ],
    ),
    (
        "LCK hw_lock high p=1024",
        6624,
        &[
            ("time_per_acquire_us", 487.932421875),
            ("rmr_per_acquire", 745.1943359375),
        ],
    ),
    (
        "LCK ticket_lock high p=256",
        5856,
        &[
            ("time_per_acquire_us", 100.7233642578125),
            ("rmr_per_acquire", 14.96728515625),
        ],
    ),
    (
        "LCK ticket_lock high p=512",
        6112,
        &[
            ("time_per_acquire_us", 131.850048828125),
            ("rmr_per_acquire", 61.47509765625),
        ],
    ),
    (
        "LCK ticket_lock high p=1024",
        6624,
        &[
            ("time_per_acquire_us", 255.2489013671875),
            ("rmr_per_acquire", 252.02880859375),
        ],
    ),
    (
        "LCK cohort_mcs high p=256",
        5856,
        &[
            ("time_per_acquire_us", 87.4197509765625),
            ("rmr_per_acquire", 0.35498046875),
        ],
    ),
    (
        "LCK cohort_mcs high p=512",
        6112,
        &[
            ("time_per_acquire_us", 88.12763671875),
            ("rmr_per_acquire", 0.4130859375),
        ],
    ),
    (
        "LCK cohort_mcs high p=1024",
        6624,
        &[
            ("time_per_acquire_us", 90.5791748046875),
            ("rmr_per_acquire", 0.64501953125),
        ],
    ),
];

/// TAB1 rows without poststore (`results/tab1.json`): machine seed 500.
const TAB1: &[Entry] = &[
    ("TAB1 cg p=1", 500, &[("cg_run_seconds", 4.177051)]),
    ("TAB1 cg p=2", 500, &[("cg_run_seconds", 2.11811185)]),
    ("TAB1 cg p=4", 500, &[("cg_run_seconds", 1.0533243)]),
    ("TAB1 cg p=8", 500, &[("cg_run_seconds", 0.49334435)]),
    ("TAB1 cg p=16", 500, &[("cg_run_seconds", 0.27762585)]),
    ("TAB1 cg p=32", 500, &[("cg_run_seconds", 0.17113705)]),
];

/// TAB2 rows (`results/tab2.json`): machine seed 600.
const TAB2: &[Entry] = &[
    (
        "TAB2 is p=1",
        600,
        &[
            ("is_run_seconds", 0.42988205),
            ("mean_ring_latency_cycles", 175.0),
        ],
    ),
    (
        "TAB2 is p=2",
        600,
        &[
            ("is_run_seconds", 0.20862805),
            ("mean_ring_latency_cycles", 178.22592592592594),
        ],
    ),
    (
        "TAB2 is p=4",
        600,
        &[
            ("is_run_seconds", 0.10863045),
            ("mean_ring_latency_cycles", 181.14399023794996),
        ],
    ),
    (
        "TAB2 is p=8",
        600,
        &[
            ("is_run_seconds", 0.0593947),
            ("mean_ring_latency_cycles", 185.69504846738275),
        ],
    ),
    (
        "TAB2 is p=16",
        600,
        &[
            ("is_run_seconds", 0.0354233),
            ("mean_ring_latency_cycles", 203.0149146879847),
        ],
    ),
    (
        "TAB2 is p=30",
        600,
        &[
            ("is_run_seconds", 0.03483),
            ("mean_ring_latency_cycles", 203.96028529318875),
        ],
    ),
    (
        "TAB2 is p=32",
        600,
        &[
            ("is_run_seconds", 0.03612515),
            ("mean_ring_latency_cycles", 210.23619782376025),
        ],
    ),
];

/// LAD saturation rows (`results/lad.json`): machine seed 4100.
const LAD: &[Entry] = &[
    (
        "LAD saturation p=32",
        4100,
        &[
            ("saturated_read_cycles", 868.40625),
            ("slot_wait_per_packet", 4.24541910331384),
        ],
    ),
    (
        "LAD saturation p=64",
        4100,
        &[
            ("saturated_read_cycles", 868.40625),
            ("slot_wait_per_packet", 4.248538011695906),
        ],
    ),
    (
        "LAD saturation p=128",
        4100,
        &[
            ("saturated_read_cycles", 869.9609375),
            ("slot_wait_per_packet", 4.561127355425601),
        ],
    ),
    (
        "LAD saturation p=256",
        4100,
        &[
            ("saturated_read_cycles", 871.09765625),
            ("slot_wait_per_packet", 4.784584145549058),
        ],
    ),
    (
        "LAD saturation p=512",
        4100,
        &[
            ("saturated_read_cycles", 871.154296875),
            ("slot_wait_per_packet", 4.796730831708902),
        ],
    ),
    (
        "LAD saturation p=1024",
        4100,
        &[
            ("saturated_read_cycles", 1083.7197265625),
            ("slot_wait_per_packet", 47.240679824561404),
        ],
    ),
];

/// Every reference entry, grouped by the `results/<id>.json` it mirrors.
pub const TABLES: &[(&str, &[Entry])] =
    &[("lck", LCK), ("tab1", TAB1), ("tab2", TAB2), ("lad", LAD)];

/// The reference outputs of `label` at machine seed `seed`, if the
/// committed results hold that point.
#[must_use]
pub fn lookup(label: &str, seed: u64) -> Option<&'static [(&'static str, f64)]> {
    TABLES
        .iter()
        .flat_map(|(_, entries)| entries.iter())
        .find(|&&(l, s, _)| l == label && s == seed)
        .map(|&(_, _, values)| values)
}

/// Compare a job's outputs with its reference row, when one applies.
///
/// # Errors
/// Names the first output that differs from (or is missing against)
/// the committed value.
pub fn check(label: &str, seed: u64, outputs: &[(&'static str, f64)]) -> Result<(), String> {
    let Some(want) = lookup(label, seed) else {
        return Ok(());
    };
    for &(metric, value) in want {
        match outputs.iter().find(|(m, _)| *m == metric) {
            Some(&(_, got)) if got.to_bits() == value.to_bits() => {}
            Some(&(_, got)) => {
                return Err(format!(
                    "{label} {metric} = {got}, committed results say {value}"
                ))
            }
            None => return Err(format!("{label} produced no {metric}")),
        }
    }
    Ok(())
}
