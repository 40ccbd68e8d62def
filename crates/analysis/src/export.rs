//! Dataset export — the release artifacts the paper ships (targets,
//! discovered interfaces, probe logs) \[7\].
//!
//! Formats are deliberately plain: line-oriented text with `#` comments
//! for address lists, and header-bearing CSV for response records, so
//! the files interoperate with the usual measurement tooling (yarrp's
//! own output, scamper's warts-to-text, ITDK dumps). No external
//! parsing crates are needed; the writers emit nothing that requires
//! quoting.

use std::io::{self, BufWriter, Write};
use std::net::Ipv6Addr;
use std::path::Path;
use yarrp6::{ProbeLog, ResponseKind};

/// Writes an address list (targets or seeds), one per line.
pub fn write_addrs(path: &Path, name: &str, addrs: &[Ipv6Addr]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# beholder address list: {name}")?;
    writeln!(w, "# count: {}", addrs.len())?;
    for a in addrs {
        writeln!(w, "{a}")?;
    }
    w.flush()
}

fn kind_to_str(kind: ResponseKind) -> (&'static str, u8) {
    match kind {
        ResponseKind::TimeExceeded => ("te", 0),
        ResponseKind::DestUnreachable(c) => ("du", c.code()),
        ResponseKind::EchoReply => ("echo", 0),
        ResponseKind::Tcp => ("tcp", 0),
    }
}

/// Writes a probe log as CSV (header + one row per response).
pub fn write_log_csv(path: &Path, log: &ProbeLog) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# vantage={} set={} prober={}",
        log.vantage, log.target_set, log.prober
    )?;
    writeln!(
        w,
        "# probes={} fills={} traces={} duration_us={}",
        log.probes_sent, log.fills, log.traces, log.duration_us
    )?;
    writeln!(
        w,
        "target,responder,kind,code,probe_ttl,rtt_us,recv_us,cksum_ok"
    )?;
    for r in &log.records {
        let (k, c) = kind_to_str(r.kind);
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            r.target,
            r.responder,
            k,
            c,
            r.probe_ttl.map(|t| t.to_string()).unwrap_or_default(),
            r.rtt_us.map(|t| t.to_string()).unwrap_or_default(),
            r.recv_us,
            u8::from(r.target_cksum_ok),
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6packet::icmp6::DestUnreachCode;
    use yarrp6::ResponseRecord;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("beholder-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn addrs_roundtrip() {
        let path = tmp("addrs");
        let addrs: Vec<Ipv6Addr> = vec!["2001:db8::1".parse().unwrap(), "::1".parse().unwrap()];
        write_addrs(&path, "test", &addrs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "# beholder address list: test",
                "# count: 2",
                "2001:db8::1",
                "::1"
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_roundtrip() {
        let path = tmp("log");
        let mut log = ProbeLog {
            vantage: "EU-NET".into(),
            target_set: "caida-z64".into(),
            prober: "yarrp6".into(),
            probes_sent: 2,
            ..Default::default()
        };
        log.records.push(ResponseRecord {
            target: "2001:db8::1".parse().unwrap(),
            responder: "2001:db8:f::1".parse().unwrap(),
            kind: ResponseKind::TimeExceeded,
            probe_ttl: Some(3),
            rtt_us: Some(12_000),
            recv_us: 99,
            target_cksum_ok: true,
        });
        log.records.push(ResponseRecord {
            target: "2001:db8::2".parse().unwrap(),
            responder: "2001:db8::2".parse().unwrap(),
            kind: ResponseKind::DestUnreachable(DestUnreachCode::PortUnreachable),
            probe_ttl: None,
            rtt_us: None,
            recv_us: 150,
            target_cksum_ok: false,
        });
        write_log_csv(&path, &log).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "# vantage=EU-NET set=caida-z64 prober=yarrp6",
                "# probes=2 fills=0 traces=0 duration_us=0",
                "target,responder,kind,code,probe_ttl,rtt_us,recv_us,cksum_ok",
                "2001:db8::1,2001:db8:f::1,te,0,3,12000,99,1",
                "2001:db8::2,2001:db8::2,du,4,,,150,0",
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn end_to_end_campaign_export() {
        use simnet::config::TopologyConfig;
        let topo = std::sync::Arc::new(simnet::generate::generate(TopologyConfig::tiny(5)));
        let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(20).collect();
        let set = targets::TargetSet::new("t", addrs);
        let res = yarrp6::campaign::run_campaign(&topo, 0, &set, &yarrp6::YarrpConfig::default());
        let path = tmp("campaign");
        write_log_csv(&path, &res.log).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Two metadata comments, the header, then one row per record.
        assert_eq!(text.lines().count(), 3 + res.log.records.len());
        let rows = text.lines().skip(3);
        for (row, r) in rows.zip(&res.log.records) {
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields.len(), 8);
            assert_eq!(fields[0].parse::<Ipv6Addr>().unwrap(), r.target);
            assert_eq!(fields[1].parse::<Ipv6Addr>().unwrap(), r.responder);
            assert_eq!(fields[6].parse::<u64>().unwrap(), r.recv_us);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
