//! Seeded input generation.
//!
//! Every input of a run derives from the `--seed` argument through
//! [`Rng`], a SplitMix64 stream. Each generator thread takes its own
//! stream, so one seed reproduces the same statements on every run.

use tempora::core::{AttrName, ObjectId, Value};
use tempora::storage::BatchRecord;
use tempora::time::Timestamp;

/// A SplitMix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload mixes.
        ((u128::from(self.next_u64()) * u128::from(n.max(1))) >> 64) as u64
    }
}

/// A uniform sample of at most `k` of the items offered, drawn in one pass
/// over a stream of unknown length (reservoir sampling), so a long run
/// keeps `k` items, not all of them.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    k: usize,
    offered: u64,
    rng: Rng,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// An empty sample of at most `k` items, drawn with `rng`.
    #[must_use]
    pub fn new(k: usize, rng: Rng) -> Self {
        Reservoir {
            k,
            offered: 0,
            rng,
            items: Vec::with_capacity(k),
        }
    }

    /// Offers the next item of the stream; `make` runs only when the item
    /// is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        self.offered += 1;
        if self.items.len() < self.k {
            self.items.push(make());
        } else {
            let slot = self.rng.below(self.offered) as usize;
            if slot < self.k {
                self.items[slot] = make();
            }
        }
    }

    /// The sample.
    #[must_use]
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Valid time of seeded row `i`: one second apart from 2000-01-01.
#[must_use]
pub fn row_vt(i: u64) -> Timestamp {
    Timestamp::from_secs(946_684_800 + i64::try_from(i).unwrap_or(i64::MAX / 2))
}

/// Valid times no seeded row uses (from 1995-05-09 on), for writes that
/// must never show up in a probe's answer.
#[must_use]
pub fn side_vt(k: u64) -> Timestamp {
    Timestamp::from_secs(800_000_000 + i64::try_from(k).unwrap_or(0))
}

/// A seeded sensor relation: row `i` belongs to `sensor[i]` and carries
/// `reading[i]`; `lifeline[s]` lists sensor `s`'s rows in row order.
#[derive(Debug, Clone)]
pub struct SensorRows {
    /// Sensor of each row.
    pub sensor: Vec<u64>,
    /// Reading of each row.
    pub reading: Vec<u64>,
    /// Rows of each sensor, ascending.
    pub lifeline: Vec<Vec<u32>>,
}

impl SensorRows {
    /// `rows` rows over `sensors` sensors with readings in `0..readings`.
    #[must_use]
    pub fn generate(seed: u64, rows: usize, sensors: u64, readings: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut lifeline = vec![Vec::new(); usize::try_from(sensors).unwrap_or(0)];
        let mut sensor = Vec::with_capacity(rows);
        let mut reading = Vec::with_capacity(rows);
        for i in 0..rows {
            let s = rng.below(sensors);
            sensor.push(s);
            reading.push(rng.below(readings));
            lifeline[s as usize].push(u32::try_from(i).unwrap_or(u32::MAX));
        }
        SensorRows {
            sensor,
            reading,
            lifeline,
        }
    }

    /// Rows `range` as ingest records: object = sensor, valid time =
    /// [`row_vt`], `reading` = the row's reading.
    #[must_use]
    pub fn records(&self, range: std::ops::Range<usize>) -> Vec<BatchRecord> {
        let reading = AttrName::new("reading");
        range
            .map(|i| BatchRecord {
                object: ObjectId::new(self.sensor[i]),
                valid: row_vt(i as u64).into(),
                attrs: vec![(reading.clone(), Value::Int(self.reading[i] as i64))],
            })
            .collect()
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sensor.len()
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sensor.is_empty()
    }
}
