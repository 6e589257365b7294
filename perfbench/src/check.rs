//! Constraint re-check of a synthesized topology, independent of the
//! engine: every fact is re-derived from the `Topology` fields here, without
//! the library's own `inter_layer_link_census` or `switch_size`.

use std::collections::BTreeSet;
use sunfloor_core::spec::{CommSpec, MessageType, SocSpec};
use sunfloor_core::topology::Topology;

fn class_index(class: MessageType) -> u8 {
    match class {
        MessageType::Request => 0,
        MessageType::Response => 1,
    }
}

/// Checks that
/// 1. each flow's path starts at its source's switch, ends at its
///    destination's switch, and walks links of the flow's own class that
///    list the flow;
/// 2. at most `max_ill` vertical links cross each layer boundary (a link or
///    cross-layer core attachment spanning several layers counts on every
///    boundary it passes);
/// 3. no switch has more than `max_ports` input or output ports (one per
///    attached core plus one per link).
///
/// Returns the first violation found.
pub fn check_topology(
    topo: &Topology,
    soc: &SocSpec,
    comm: &CommSpec,
    max_ill: u32,
    max_ports: u32,
) -> Result<(), String> {
    let nsw = topo.switch_layer.len();
    if topo.core_attach.len() != soc.cores.len() {
        return Err(format!(
            "{} core attachments for {} cores",
            topo.core_attach.len(),
            soc.cores.len()
        ));
    }
    if let Some(&s) = topo.core_attach.iter().find(|&&s| s >= nsw) {
        return Err(format!("core attached to switch {s} of {nsw}"));
    }
    if let Some(l) = topo.links.iter().find(|l| l.from >= nsw || l.to >= nsw) {
        return Err(format!(
            "link {}->{} names a switch beyond {nsw}",
            l.from, l.to
        ));
    }

    // 1. Paths.
    if topo.flow_paths.len() != comm.flows.len() {
        return Err(format!(
            "{} paths for {} flows",
            topo.flow_paths.len(),
            comm.flows.len()
        ));
    }
    let carried: BTreeSet<(usize, usize, u8, usize)> = topo
        .links
        .iter()
        .flat_map(|l| {
            l.flows
                .iter()
                .map(move |&f| (l.from, l.to, class_index(l.class), f))
        })
        .collect();
    for (i, (flow, path)) in comm.flows.iter().zip(&topo.flow_paths).enumerate() {
        let hops = &path.switches;
        let (Some(&first), Some(&last)) = (hops.first(), hops.last()) else {
            return Err(format!("flow {i}: empty path"));
        };
        if first != topo.core_attach[flow.src] || last != topo.core_attach[flow.dst] {
            return Err(format!(
                "flow {i}: path {first}..{last} does not join switches {}..{}",
                topo.core_attach[flow.src], topo.core_attach[flow.dst]
            ));
        }
        for hop in hops.windows(2) {
            if !carried.contains(&(hop[0], hop[1], class_index(flow.message_type), i)) {
                return Err(format!(
                    "flow {i}: hop {}->{} has no {:?} link carrying it",
                    hop[0], hop[1], flow.message_type
                ));
            }
        }
    }

    // 2. Vertical links per layer boundary.
    let mut crossings = vec![0u32; soc.layers.saturating_sub(1) as usize];
    let mut cross = |a: u32, b: u32| {
        for boundary in a.min(b)..a.max(b) {
            if let Some(c) = crossings.get_mut(boundary as usize) {
                *c += 1;
            }
        }
    };
    for l in &topo.links {
        cross(topo.switch_layer[l.from], topo.switch_layer[l.to]);
    }
    for (core, &s) in soc.cores.iter().zip(&topo.core_attach) {
        cross(core.layer, topo.switch_layer[s]);
    }
    if let Some((b, &n)) = crossings.iter().enumerate().find(|(_, &n)| n > max_ill) {
        return Err(format!(
            "{n} vertical links cross boundary {b}, limit {max_ill}"
        ));
    }

    // 3. Switch ports.
    let mut inputs = vec![0u32; nsw];
    let mut outputs = vec![0u32; nsw];
    for &s in &topo.core_attach {
        inputs[s] += 1;
        outputs[s] += 1;
    }
    for l in &topo.links {
        outputs[l.from] += 1;
        inputs[l.to] += 1;
    }
    for s in 0..nsw {
        let ports = inputs[s].max(outputs[s]);
        if ports > max_ports {
            return Err(format!("switch {s} has {ports} ports, limit {max_ports}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunfloor_core::spec::{Core, Flow};
    use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine};
    use sunfloor_core::topology::Link;

    /// Four cores on two layers with request and response traffic across
    /// the boundary.
    fn design() -> (SocSpec, CommSpec) {
        let core = |name: &str, x: f64, layer: u32| Core {
            name: name.into(),
            width: 2.0,
            height: 2.0,
            x,
            y: 0.0,
            layer,
        };
        let soc = SocSpec::new(
            vec![
                core("cpu", 0.0, 0),
                core("dsp", 3.0, 0),
                core("mem", 0.0, 1),
                core("io", 3.0, 1),
            ],
            2,
        )
        .unwrap();
        let flow = |src, dst, message_type| Flow {
            src,
            dst,
            bandwidth_mbs: 300.0,
            max_latency_cycles: 10.0,
            message_type,
        };
        let comm = CommSpec::new(
            vec![
                flow(0, 2, MessageType::Request),
                flow(2, 0, MessageType::Response),
                flow(1, 3, MessageType::Request),
                flow(0, 1, MessageType::Request),
            ],
            &soc,
        )
        .unwrap();
        (soc, comm)
    }

    /// A synthesized topology with at least one switch-to-switch hop.
    fn synthesized(soc: &SocSpec, comm: &CommSpec) -> Topology {
        let cfg = SynthesisConfig::builder()
            .run_layout(false)
            .build()
            .unwrap();
        let outcome = SynthesisEngine::new(soc, comm, cfg).unwrap().run();
        outcome
            .points
            .into_iter()
            .map(|p| p.topology)
            .find(|t| t.flow_paths.iter().any(|p| p.switches.len() > 1))
            .expect("a multi-switch point")
    }

    #[test]
    fn accepts_what_the_engine_produces() {
        let (soc, comm) = design();
        let topo = synthesized(&soc, &comm);
        check_topology(&topo, &soc, &comm, 25, 16).unwrap();
    }

    #[test]
    fn rejects_a_broken_hop() {
        let (soc, comm) = design();
        let mut topo = synthesized(&soc, &comm);
        let (f, path) = topo
            .flow_paths
            .iter()
            .enumerate()
            .find(|(_, p)| p.switches.len() > 1)
            .unwrap();
        let (from, to) = (path.switches[0], path.switches[1]);
        // Drop the flow from the link its first hop uses.
        for l in &mut topo.links {
            if (l.from, l.to) == (from, to) {
                l.flows.retain(|&g| g != f);
            }
        }
        let err = check_topology(&topo, &soc, &comm, 25, 16).unwrap_err();
        assert!(
            err.contains(&format!("flow {f}: hop {from}->{to}")),
            "{err}"
        );
    }

    #[test]
    fn rejects_a_path_that_misses_its_endpoint_switch() {
        let (soc, comm) = design();
        let mut topo = synthesized(&soc, &comm);
        let wrong = (topo.core_attach[0] + 1) % topo.switch_layer.len();
        topo.flow_paths[0].switches[0] = wrong;
        let err = check_topology(&topo, &soc, &comm, 25, 16).unwrap_err();
        assert!(err.contains("flow 0: path"), "{err}");
    }

    #[test]
    fn rejects_an_extra_vertical_link() {
        let (soc, comm) = design();
        let mut topo = synthesized(&soc, &comm);
        let crossings = |t: &Topology| {
            let links = t
                .links
                .iter()
                .filter(|l| t.switch_layer[l.from] != t.switch_layer[l.to])
                .count();
            let cores = soc
                .cores
                .iter()
                .zip(&t.core_attach)
                .filter(|(c, &s)| c.layer != t.switch_layer[s])
                .count();
            (links + cores) as u32
        };
        let budget = crossings(&topo);
        check_topology(&topo, &soc, &comm, budget, 16).unwrap();
        // One more vertical link: a fresh switch on the other layer, linked
        // from switch 0.
        let other_layer = 1 - topo.switch_layer[0];
        topo.switch_layer.push(other_layer);
        topo.switch_pos.push((0.0, 0.0));
        topo.links.push(Link {
            from: 0,
            to: topo.switch_layer.len() - 1,
            bandwidth_gbps: 0.0,
            flows: Vec::new(),
            class: MessageType::Request,
        });
        let err = check_topology(&topo, &soc, &comm, budget, 16).unwrap_err();
        assert!(err.contains("cross boundary 0"), "{err}");
    }

    #[test]
    fn rejects_a_switch_over_its_port_limit() {
        let (soc, comm) = design();
        let topo = synthesized(&soc, &comm);
        let err = check_topology(&topo, &soc, &comm, 25, 1).unwrap_err();
        assert!(err.contains("ports, limit 1"), "{err}");
    }
}
