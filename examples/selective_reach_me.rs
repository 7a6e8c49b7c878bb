//! Example 2 of the paper (§2.2): the selective reach-me service.
//!
//! An incoming call for Alice must be routed to the best medium. The
//! service aggregates, across four networks: location and on/off-air
//! state (wireless HLR), call status (PSTN), IM presence (Internet),
//! calendar (portal) and her device list — then applies her rules:
//!
//! * 9am–6pm weekdays, presence "available": office phone, then softphone
//! * 8–9am and 6–7pm: commuting → cell phone
//! * Fridays: working from home → home phone
//!
//! ```text
//! cargo run --example selective_reach_me
//! ```

use gupster::netsim::topology::ConvergedNetwork;
use gupster::netsim::{Journey, SimTime};
use gupster::policy::WeekTime;
use gupster::xpath::Path;

#[derive(Debug)]
enum Medium {
    OfficePhone,
    SoftPhone,
    CellPhone,
    HomePhone,
    VoiceMail,
}

fn main() {
    let mut world = ConvergedNetwork::build(22);
    world.populate_alice();

    let scenarios = [
        ("Tuesday 10:30 — at her desk", WeekTime::at(1, 10, 30), "available", false),
        ("Tuesday 10:30 — office line busy", WeekTime::at(1, 10, 30), "available", true),
        ("Tuesday 08:15 — commuting", WeekTime::at(1, 8, 15), "available", false),
        ("Friday 14:00 — home-office day", WeekTime::at(4, 14, 0), "available", false),
        ("Sunday 02:00 — offline", WeekTime::at(6, 2, 0), "offline", false),
    ];

    for (label, when, presence_override, office_busy) in scenarios {
        world.presence.set_status("alice", presence_override);
        world.pstn.set_busy("908-582-3000", office_busy);

        // Aggregate the five sources in parallel (the latency budget is
        // "a few seconds"; parallel fan-out keeps it well under).
        let mut j = Journey::start();
        j.parallel_rpcs(
            &world.net,
            world.gupster,
            &[
                (world.sprintpcs.hlr.node, 96, 256), // location / on-air
                (world.pstn.node, 96, 128),          // call status
                (world.presence.node, 96, 128),      // IM presence
                (world.portal.node, 128, 2048),      // calendar
                (world.enterprise.node, 128, 1024),  // corporate data
            ],
        );

        // Read the actual state the referrals would fetch.
        let presence = world.presence.status("alice").to_string();
        let office_line = world.pstn.line("908-582-3000").expect("provisioned");
        let on_air = world.sprintpcs.hlr.lookup_routing("908-555-0199").is_some();
        let devices = world
            .portal
            .store
            .profile("alice")
            .map(|p| Path::parse("/user/devices/device").unwrap().select(&p).len())
            .unwrap_or(0);

        let decision = decide(when, &presence, office_line.busy, on_air);
        j.compute(SimTime::millis(1));
        println!("{label}");
        println!(
            "   presence={presence} office_busy={} on_air={on_air} devices_known={devices}",
            office_line.busy
        );
        println!("   → route to {decision:?}   (decided in {})", j.elapsed());
        assert!(j.elapsed() < SimTime::secs(3), "must stay within 'a few seconds'");
        println!();
    }
}

fn decide(when: WeekTime, presence: &str, office_busy: bool, on_air: bool) -> Medium {
    let m = when.minute_of_day();
    let working = when.day() < 5 && (9 * 60..18 * 60).contains(&m);
    let commuting = when.day() < 5
        && ((8 * 60..9 * 60).contains(&m) || (18 * 60..19 * 60).contains(&m));
    if when.day() == 4 && working {
        return Medium::HomePhone;
    }
    if working {
        if presence == "available" {
            return if office_busy { Medium::SoftPhone } else { Medium::OfficePhone };
        }
        return if on_air { Medium::CellPhone } else { Medium::VoiceMail };
    }
    if commuting && on_air {
        return Medium::CellPhone;
    }
    if presence == "offline" && !on_air {
        return Medium::VoiceMail;
    }
    Medium::CellPhone
}
