// The paper's hub deployment (§6), assembled from the public net/tcp/sttcp/
// app classes: a client, a primary serving the virtual service IP, a
// promiscuous backup shadowing every flow off the hub, and a power switch
// that fences a suspected peer. Every link is the fast LAN of bench_scale
// (1 Gb/s, 50 us propagation); ST-TCP runs its default configuration.
#pragma once

#include <memory>

#include "app/responder.hpp"
#include "net/hub.hpp"
#include "net/nic.hpp"
#include "net/node.hpp"
#include "net/power_switch.hpp"
#include "sim/simulation.hpp"
#include "sttcp/backup.hpp"
#include "sttcp/primary.hpp"
#include "tcp/host_stack.hpp"

namespace perfbench {

using namespace sttcp;

inline constexpr std::uint16_t kServicePort = 8000;
inline constexpr net::Ipv4Address kServiceIp{10, 0, 0, 100};
inline constexpr net::Ipv4Address kClientIp{10, 0, 0, 10};
inline constexpr net::Ipv4Address kPrimaryIp{10, 0, 0, 2};
inline constexpr net::Ipv4Address kBackupIp{10, 0, 0, 3};

class Deployment {
public:
    Deployment(std::uint64_t seed, const tcp::TcpConfig& tcp_config)
        : sim(seed),
          hub(sim, "hub"),
          power(sim),
          client_nic(client_node, "eth0", net::MacAddress::local(10)),
          primary_nic(primary_node, "eth0", net::MacAddress::local(2)),
          backup_nic(backup_node, "eth0", net::MacAddress::local(3)),
          client_link(hub.connect(client_nic, lan())),
          primary_link(hub.connect(primary_nic, lan())),
          backup_link(hub.connect(backup_nic, lan())),
          client(sim, client_node, tcp_config),
          primary(sim, primary_node, tcp_config),
          backup(sim, backup_node, tcp_config) {
        client.add_interface(client_nic, kClientIp, 24);
        primary.add_ip_alias(primary.add_interface(primary_nic, kPrimaryIp, 24), kServiceIp);
        backup.add_interface(backup_nic, kBackupIp, 24);
        backup_nic.set_promiscuous(true);
        power.manage(primary_node);
        power.manage(backup_node);

        core::SttcpConfig config;
        core::SttcpPrimary::Options popts;
        popts.config = config;
        popts.service_ip = kServiceIp;
        popts.backup_ips = {kBackupIp};
        st_primary = std::make_unique<core::SttcpPrimary>(primary, popts);
        st_primary->set_fencer([this](net::Ipv4Address, std::function<void()> done) {
            power.power_off(backup_node.name(), std::move(done));
        });
        st_backup = std::make_unique<core::SttcpBackup>(
            backup, core::SttcpBackup::Options::single(config, kServiceIp, kPrimaryIp, kBackupIp));
        st_backup->set_fencer([this](net::Ipv4Address, std::function<void()> done) {
            power.power_off(primary_node.name(), std::move(done));
        });

        primary_listener = st_primary->listen(kServicePort);
        backup_listener = st_backup->listen(kServicePort);
        primary_app.attach(*primary_listener);
        backup_app.attach(*backup_listener);
        st_primary->start();
        st_backup->start();
    }

    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    sim::Simulation sim;
    net::Hub hub;
    net::PowerSwitch power;
    net::Node client_node{"client"};
    net::Node primary_node{"primary"};
    net::Node backup_node{"backup"};
    net::Nic client_nic;
    net::Nic primary_nic;
    net::Nic backup_nic;
    net::Link& client_link;
    net::Link& primary_link;
    net::Link& backup_link;
    tcp::HostStack client;
    tcp::HostStack primary;
    tcp::HostStack backup;
    std::unique_ptr<core::SttcpPrimary> st_primary;
    std::unique_ptr<core::SttcpBackup> st_backup;
    // The stacks hold listeners weakly; these keep the service listening.
    std::shared_ptr<tcp::TcpListener> primary_listener;
    std::shared_ptr<tcp::TcpListener> backup_listener;
    // Declared last so they are destroyed first: their sessions live in
    // connection callbacks the stacks detach on teardown.
    app::ResponderApp primary_app;
    app::ResponderApp backup_app;

private:
    static net::LinkConfig lan() {
        net::LinkConfig c;
        c.bandwidth_bps = 1e9;
        c.propagation = sim::microseconds{50};
        return c;
    }
};

} // namespace perfbench
