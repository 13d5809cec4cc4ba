//! PerfDMF common XML exchange format.
//!
//! The paper (§3.1): "Export of profile data is also supported in a common
//! XML representation." This module defines that representation for the
//! Rust implementation and provides a lossless export/import pair.
//!
//! ```xml
//! <perfdmf_profile name="trial1" source="tau">
//!   <metadata>
//!     <attribute name="problem_size" value="1024"/>
//!   </metadata>
//!   <metrics>
//!     <metric id="0" name="GET_TIME_OF_DAY" derived="false"/>
//!   </metrics>
//!   <events>
//!     <event id="0" name="main()" group="TAU_USER"/>
//!   </events>
//!   <threads>
//!     <thread node="0" context="0" thread="0"/>
//!   </threads>
//!   <interval_data>
//!     <p e="0" n="0" c="0" t="0" m="0" incl="100.25" excl="60.5"
//!        calls="1" subrs="2"/>
//!   </interval_data>
//!   <atomic_events>
//!     <aevent id="0" name="Message size" group="TAU_EVENT"/>
//!   </atomic_events>
//!   <atomic_data>
//!     <a e="0" n="0" c="0" t="0" count="4" min="8" max="1024"
//!        mean="512" stddev="430.2"/>
//!   </atomic_data>
//! </perfdmf_profile>
//! ```
//!
//! Undefined interval fields are omitted from the `<p>` element rather
//! than serialized as NaN.

use crate::error::{ImportError, Result};
use perfdmf_profile::{
    AtomicData, AtomicEvent, EventId, IntervalData, IntervalEvent, Metric, MetricId, Profile,
    ThreadId,
};
use perfdmf_xml::{Element, Writer};

const FORMAT: &str = "perfdmf-xml";

/// Serialize a profile to the PerfDMF XML exchange format.
pub fn export_xml(profile: &Profile) -> String {
    let mut out = String::with_capacity(1 << 16);
    let mut w = Writer::compact(&mut out);
    w.declaration().expect("fresh writer");
    w.begin("perfdmf_profile").expect("root");
    w.attr("name", &profile.name).expect("attr");
    w.attr("source", &profile.source_format).expect("attr");

    w.begin("metadata").expect("open");
    for (k, v) in &profile.metadata {
        w.begin("attribute").expect("open");
        w.attr("name", k).expect("attr");
        w.attr("value", v).expect("attr");
        w.end().expect("close");
    }
    w.end().expect("close");

    w.begin("metrics").expect("open");
    for (i, m) in profile.metrics().iter().enumerate() {
        w.begin("metric").expect("open");
        w.attr_fmt("id", i).expect("attr");
        w.attr("name", &m.name).expect("attr");
        w.attr("derived", if m.derived { "true" } else { "false" })
            .expect("attr");
        w.end().expect("close");
    }
    w.end().expect("close");

    w.begin("events").expect("open");
    for (i, e) in profile.events().iter().enumerate() {
        w.begin("event").expect("open");
        w.attr_fmt("id", i).expect("attr");
        w.attr("name", &e.name).expect("attr");
        w.attr("group", &e.group).expect("attr");
        w.end().expect("close");
    }
    w.end().expect("close");

    w.begin("threads").expect("open");
    for t in profile.threads() {
        w.begin("thread").expect("open");
        w.attr_fmt("node", t.node).expect("attr");
        w.attr_fmt("context", t.context).expect("attr");
        w.attr_fmt("thread", t.thread).expect("attr");
        w.end().expect("close");
    }
    w.end().expect("close");

    w.begin("interval_data").expect("open");
    for (mi, _) in profile.metrics().iter().enumerate() {
        let metric = MetricId(mi);
        for (event, thread, d) in profile.iter_metric(metric) {
            w.begin("p").expect("open");
            w.attr_fmt("e", event.0).expect("attr");
            w.attr_fmt("n", thread.node).expect("attr");
            w.attr_fmt("c", thread.context).expect("attr");
            w.attr_fmt("t", thread.thread).expect("attr");
            w.attr_fmt("m", mi).expect("attr");
            let mut put = |name: &str, v: Option<f64>| {
                if let Some(x) = v {
                    w.attr(name, &format_f64(x)).expect("attr");
                }
            };
            put("incl", d.inclusive());
            put("excl", d.exclusive());
            put("calls", d.calls());
            put("subrs", d.subroutines());
            put("inclpct", d.inclusive_percent());
            put("exclpct", d.exclusive_percent());
            put("percall", d.inclusive_per_call());
            w.end().expect("close");
        }
    }
    w.end().expect("close");

    w.begin("atomic_events").expect("open");
    for (i, ae) in profile.atomic_events().iter().enumerate() {
        w.begin("aevent").expect("open");
        w.attr_fmt("id", i).expect("attr");
        w.attr("name", &ae.name).expect("attr");
        w.attr("group", &ae.group).expect("attr");
        w.end().expect("close");
    }
    w.end().expect("close");

    w.begin("atomic_data").expect("open");
    let mut atomics: Vec<_> = profile.iter_atomic().collect();
    atomics.sort_by_key(|(e, t, _)| (e.0, *t));
    for (ae, thread, d) in atomics {
        w.begin("a").expect("open");
        w.attr_fmt("e", ae.0).expect("attr");
        w.attr_fmt("n", thread.node).expect("attr");
        w.attr_fmt("c", thread.context).expect("attr");
        w.attr_fmt("t", thread.thread).expect("attr");
        w.attr_fmt("count", d.count()).expect("attr");
        w.attr("min", &format_f64(d.min)).expect("attr");
        w.attr("max", &format_f64(d.max)).expect("attr");
        w.attr("mean", &format_f64(d.mean())).expect("attr");
        w.attr("stddev", &format_f64(d.stddev().unwrap_or(0.0)))
            .expect("attr");
        w.end().expect("close");
    }
    w.end().expect("close");

    w.end().expect("root close");
    w.finish().expect("balanced");
    out
}

/// Format a float so it round-trips exactly through text.
fn format_f64(x: f64) -> String {
    // `{}` on f64 is shortest-representation and round-trips.
    format!("{x}")
}

/// Parse the PerfDMF XML exchange format into a [`Profile`].
pub fn import_xml(text: &str) -> Result<Profile> {
    let doc = Element::parse(text)?;
    if doc.name != "perfdmf_profile" {
        return Err(ImportError::format(
            FORMAT,
            0,
            format!("unexpected root <{}>", doc.name),
        ));
    }
    let mut profile = Profile::new(doc.attr("name").unwrap_or(""));
    profile.source_format = doc.attr("source").unwrap_or("perfdmf-xml").to_string();

    if let Some(md) = doc.child("metadata") {
        for a in md.children_named("attribute") {
            profile.metadata.push((
                a.require_attr("name")?.to_string(),
                a.attr("value").unwrap_or("").to_string(),
            ));
        }
    }

    let mut metric_ids: Vec<MetricId> = Vec::new();
    if let Some(ms) = doc.child("metrics") {
        for m in ms.children_named("metric") {
            let name = m.require_attr("name")?;
            let derived = m.attr("derived") == Some("true");
            let metric = if derived {
                Metric::derived(name)
            } else {
                Metric::measured(name)
            };
            metric_ids.push(profile.add_metric(metric));
        }
    }
    let mut event_ids: Vec<EventId> = Vec::new();
    if let Some(es) = doc.child("events") {
        for e in es.children_named("event") {
            event_ids.push(profile.add_event(IntervalEvent::new(
                e.require_attr("name")?,
                e.attr("group").unwrap_or("TAU_DEFAULT"),
            )));
        }
    }
    if let Some(ts) = doc.child("threads") {
        let threads: Vec<ThreadId> = ts
            .children_named("thread")
            .map(|t| -> Result<ThreadId> {
                Ok(ThreadId::new(
                    parse_attr(t, "node")?,
                    parse_attr(t, "context")?,
                    parse_attr(t, "thread")?,
                ))
            })
            .collect::<Result<_>>()?;
        profile.add_threads(threads);
    }

    if let Some(ps) = doc.child("interval_data") {
        for p in ps.children_named("p") {
            let e: usize = parse_attr(p, "e")?;
            let m: usize = parse_attr(p, "m")?;
            let thread = ThreadId::new(
                parse_attr(p, "n")?,
                parse_attr(p, "c")?,
                parse_attr(p, "t")?,
            );
            let event = *event_ids.get(e).ok_or_else(|| {
                ImportError::format(FORMAT, 0, format!("event id {e} out of range"))
            })?;
            let metric = *metric_ids.get(m).ok_or_else(|| {
                ImportError::format(FORMAT, 0, format!("metric id {m} out of range"))
            })?;
            let get = |name: &str| -> Result<f64> {
                match p.attr(name) {
                    None => Ok(f64::NAN),
                    Some(s) => s.parse().map_err(|_| {
                        ImportError::format(FORMAT, 0, format!("bad float in attribute {name}"))
                    }),
                }
            };
            let mut d = IntervalData::new(get("incl")?, get("excl")?, get("calls")?, get("subrs")?);
            d.inclusive_percent = get("inclpct")?;
            d.exclusive_percent = get("exclpct")?;
            d.inclusive_per_call = get("percall")?;
            profile.set_interval(event, thread, metric, d);
        }
    }

    let mut atomic_ids = Vec::new();
    if let Some(aes) = doc.child("atomic_events") {
        for ae in aes.children_named("aevent") {
            atomic_ids.push(profile.add_atomic_event(AtomicEvent::new(
                ae.require_attr("name")?,
                ae.attr("group").unwrap_or("TAU_EVENT"),
            )));
        }
    }
    if let Some(ads) = doc.child("atomic_data") {
        for a in ads.children_named("a") {
            let e: usize = parse_attr(a, "e")?;
            let thread = ThreadId::new(
                parse_attr(a, "n")?,
                parse_attr(a, "c")?,
                parse_attr(a, "t")?,
            );
            let id = *atomic_ids.get(e).ok_or_else(|| {
                ImportError::format(FORMAT, 0, format!("atomic event id {e} out of range"))
            })?;
            let count: u64 = parse_attr(a, "count")?;
            let min: f64 = parse_attr(a, "min")?;
            let max: f64 = parse_attr(a, "max")?;
            let mean: f64 = parse_attr(a, "mean")?;
            let stddev: f64 = parse_attr(a, "stddev")?;
            profile.set_atomic(
                id,
                thread,
                AtomicData::from_summary(count, min, max, mean, stddev),
            );
        }
    }
    Ok(profile)
}

fn parse_attr<T: std::str::FromStr>(e: &Element, name: &str) -> Result<T> {
    e.require_attr(name)?
        .parse()
        .map_err(|_| ImportError::format(FORMAT, 0, format!("bad value for attribute {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut p = Profile::new("trial<1>");
        p.source_format = "tau".into();
        p.metadata.push(("problem_size".into(), "1024".into()));
        let time = p.add_metric(Metric::measured("GET_TIME_OF_DAY"));
        let fp = p.add_metric(Metric::derived("FLOPS"));
        let main = p.add_event(IntervalEvent::new("main()", "TAU_USER"));
        let send = p.add_event(IntervalEvent::new("MPI_Send()", "MPI"));
        p.add_threads([ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]);
        for (i, t) in [ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]
            .into_iter()
            .enumerate()
        {
            p.set_interval(
                main,
                t,
                time,
                IntervalData::new(100.0 + i as f64, 60.0, 1.0, 2.0),
            );
            p.set_interval(send, t, time, IntervalData::new(40.0, 40.0, 10.0, 0.0));
            p.set_interval(main, t, fp, IntervalData::new(1e9, 5e8, 1.0, 2.0));
        }
        p.recompute_derived_fields(time);
        let ae = p.add_atomic_event(AtomicEvent::new("Message size", "TAU_EVENT"));
        let mut ad = AtomicData::new();
        for x in [8.0, 512.0, 1024.0] {
            ad.record(x);
        }
        p.set_atomic(ae, ThreadId::new(1, 0, 0), ad);
        p
    }

    #[test]
    fn export_import_roundtrip() {
        let p = sample_profile();
        let xml = export_xml(&p);
        let back = import_xml(&xml).unwrap();
        assert_eq!(back.name, p.name);
        assert_eq!(back.source_format, "tau");
        assert_eq!(back.metadata, p.metadata);
        assert_eq!(back.metrics(), p.metrics());
        assert_eq!(back.events(), p.events());
        assert_eq!(back.threads(), p.threads());
        assert_eq!(back.data_point_count(), p.data_point_count());
        // spot-check exact value and derived-percent preservation
        let m = back.find_metric("GET_TIME_OF_DAY").unwrap();
        let e = back.find_event("main()").unwrap();
        let t1 = ThreadId::new(1, 0, 0);
        let orig = p
            .interval(
                p.find_event("main()").unwrap(),
                t1,
                p.find_metric("GET_TIME_OF_DAY").unwrap(),
            )
            .unwrap();
        let got = back.interval(e, t1, m).unwrap();
        assert_eq!(got.inclusive(), orig.inclusive());
        assert_eq!(got.inclusive_percent(), orig.inclusive_percent());
        // atomic data
        let ae = back.find_atomic_event("Message size").unwrap();
        let a = back.atomic(ae, t1).unwrap();
        assert_eq!(a.count(), 3);
        assert_eq!(a.max, 1024.0);
        let orig_a = p
            .atomic(p.find_atomic_event("Message size").unwrap(), t1)
            .unwrap();
        assert!((a.stddev().unwrap() - orig_a.stddev().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn undefined_fields_survive_roundtrip() {
        let mut p = Profile::new("u");
        let m = p.add_metric(Metric::measured("X"));
        let e = p.add_event(IntervalEvent::ungrouped("f"));
        p.add_thread(ThreadId::ZERO);
        // only exclusive defined
        let d = IntervalData {
            exclusive: 5.0,
            ..Default::default()
        };
        p.set_interval(e, ThreadId::ZERO, m, d);
        let back = import_xml(&export_xml(&p)).unwrap();
        let got = back
            .interval(
                back.find_event("f").unwrap(),
                ThreadId::ZERO,
                back.find_metric("X").unwrap(),
            )
            .unwrap();
        assert_eq!(got.exclusive(), Some(5.0));
        assert_eq!(got.inclusive(), None);
        assert_eq!(got.calls(), None);
    }

    #[test]
    fn extreme_floats_roundtrip_exactly() {
        let mut p = Profile::new("x");
        let m = p.add_metric(Metric::measured("V"));
        let e = p.add_event(IntervalEvent::ungrouped("f"));
        p.add_thread(ThreadId::ZERO);
        let v = 0.1 + 0.2; // classic non-representable sum
        p.set_interval(e, ThreadId::ZERO, m, IntervalData::new(v, 1e-308, 3.0, 0.0));
        let back = import_xml(&export_xml(&p)).unwrap();
        let got = back
            .interval(
                back.find_event("f").unwrap(),
                ThreadId::ZERO,
                back.find_metric("V").unwrap(),
            )
            .unwrap();
        assert_eq!(got.inclusive(), Some(v));
        assert_eq!(got.exclusive(), Some(1e-308));
    }

    #[test]
    fn rejects_wrong_root_and_bad_ids() {
        assert!(import_xml("<nope/>").is_err());
        let bad = r#"<perfdmf_profile name="x" source="y">
            <metrics><metric id="0" name="M" derived="false"/></metrics>
            <events><event id="0" name="E" group="G"/></events>
            <threads><thread node="0" context="0" thread="0"/></threads>
            <interval_data><p e="7" n="0" c="0" t="0" m="0" incl="1"/></interval_data>
        </perfdmf_profile>"#;
        assert!(import_xml(bad).is_err());
    }
}
