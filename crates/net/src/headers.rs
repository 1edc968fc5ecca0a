//! Wire-format synthesis and parsing for Ethernet II / IPv4 / TCP / UDP.
//!
//! The simulator moves [`crate::packet::PacketRecord`]s, but the capture
//! path (ARP-spoof intercept, NFQUEUE model) operates on real bytes. These
//! builders produce frames that parse back exactly, with valid IPv4 and
//! TCP/UDP checksums, so the interception layer exercises the same parsing
//! logic a deployment on live traffic would.

use crate::packet::{TcpFlags, Transport};
use std::net::Ipv4Addr;

/// Ethernet II header length.
pub const ETH_HDR_LEN: usize = 14;
/// Minimal IPv4 header length (no options).
pub const IPV4_HDR_LEN: usize = 20;
/// Minimal TCP header length (no options).
pub const TCP_HDR_LEN: usize = 20;
/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;
/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for ARP.
pub const ETHERTYPE_ARP: u16 = 0x0806;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Broadcast address ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Deterministic locally-administered MAC for a device index.
    pub fn for_device(idx: u16) -> MacAddr {
        let [hi, lo] = idx.to_be_bytes();
        MacAddr([0x02, 0xf1, 0xa7, 0x00, hi, lo])
    }
}

/// Errors from frame parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Frame shorter than the headers it claims.
    Truncated,
    /// EtherType is not IPv4.
    NotIpv4,
    /// IPv4 version field is not 4 or header length invalid.
    BadIpHeader,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// Transport protocol is neither TCP nor UDP.
    UnsupportedProtocol(u8),
    /// TCP/UDP checksum mismatch.
    BadTransportChecksum,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "frame truncated"),
            ParseError::NotIpv4 => write!(f, "not an IPv4 frame"),
            ParseError::BadIpHeader => write!(f, "malformed IPv4 header"),
            ParseError::BadIpChecksum => write!(f, "IPv4 header checksum mismatch"),
            ParseError::UnsupportedProtocol(p) => write!(f, "unsupported IP protocol {p}"),
            ParseError::BadTransportChecksum => write!(f, "TCP/UDP checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed frame: everything FIAT's capture point needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFrame {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Transport protocol.
    pub transport: Transport,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// TCP flags (zero for UDP).
    pub tcp_flags: TcpFlags,
    /// Payload byte length.
    pub payload_len: usize,
    /// Total frame length.
    pub frame_len: usize,
}

/// RFC 1071 internet checksum over `data`, with an initial partial sum.
fn checksum(data: &[u8], initial: u32) -> u16 {
    let mut sum = initial;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) -> u32 {
    let s = src.octets();
    let d = dst.octets();
    u16::from_be_bytes([s[0], s[1]]) as u32
        + u16::from_be_bytes([s[2], s[3]]) as u32
        + u16::from_be_bytes([d[0], d[1]]) as u32
        + u16::from_be_bytes([d[2], d[3]]) as u32
        + proto as u32
        + len as u32
}

/// Parameters for synthesizing one frame.
#[derive(Debug, Clone)]
pub struct FrameSpec {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4.
    pub dst_ip: Ipv4Addr,
    /// Transport protocol.
    pub transport: Transport,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// TCP flags (ignored for UDP).
    pub tcp_flags: TcpFlags,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// IPv4 TTL.
    pub ttl: u8,
}

impl FrameSpec {
    /// Total on-wire frame length this spec will produce.
    pub fn frame_len(&self) -> usize {
        let transport_hdr = match self.transport {
            Transport::Tcp => TCP_HDR_LEN,
            Transport::Udp => UDP_HDR_LEN,
        };
        ETH_HDR_LEN + IPV4_HDR_LEN + transport_hdr + self.payload.len()
    }
}

/// Build a complete Ethernet II frame with valid checksums.
pub fn build_frame(spec: &FrameSpec) -> Vec<u8> {
    let transport_hdr = match spec.transport {
        Transport::Tcp => TCP_HDR_LEN,
        Transport::Udp => UDP_HDR_LEN,
    };
    let ip_total_len = (IPV4_HDR_LEN + transport_hdr + spec.payload.len()) as u16;
    let mut buf = Vec::with_capacity(ETH_HDR_LEN + ip_total_len as usize);

    // Ethernet II.
    buf.extend_from_slice(&spec.dst_mac.0);
    buf.extend_from_slice(&spec.src_mac.0);
    buf.extend_from_slice(&u16::to_be_bytes(ETHERTYPE_IPV4));

    // IPv4 header.
    let ip_start = buf.len();
    buf.push(0x45); // version 4, IHL 5
    buf.push(0); // DSCP/ECN
    buf.extend_from_slice(&u16::to_be_bytes(ip_total_len));
    buf.extend_from_slice(&u16::to_be_bytes(0)); // identification
    buf.extend_from_slice(&u16::to_be_bytes(0x4000)); // flags: DF
    buf.push(spec.ttl);
    buf.push(spec.transport.proto_number());
    buf.extend_from_slice(&u16::to_be_bytes(0)); // checksum placeholder
    buf.extend_from_slice(&spec.src_ip.octets());
    buf.extend_from_slice(&spec.dst_ip.octets());
    let ip_csum = checksum(&buf[ip_start..ip_start + IPV4_HDR_LEN], 0);
    buf[ip_start + 10..ip_start + 12].copy_from_slice(&ip_csum.to_be_bytes());

    // Transport header + payload.
    let t_start = buf.len();
    let t_len = (transport_hdr + spec.payload.len()) as u16;
    match spec.transport {
        Transport::Tcp => {
            buf.extend_from_slice(&u16::to_be_bytes(spec.src_port));
            buf.extend_from_slice(&u16::to_be_bytes(spec.dst_port));
            buf.extend_from_slice(&u32::to_be_bytes(1)); // seq
            buf.extend_from_slice(&u32::to_be_bytes(1)); // ack
            buf.push(0x50); // data offset 5
            buf.push(spec.tcp_flags.0);
            buf.extend_from_slice(&u16::to_be_bytes(0xffff)); // window
            buf.extend_from_slice(&u16::to_be_bytes(0)); // checksum placeholder
            buf.extend_from_slice(&u16::to_be_bytes(0)); // urgent
            buf.extend_from_slice(&spec.payload);
            let csum = checksum(
                &buf[t_start..],
                pseudo_header_sum(spec.src_ip, spec.dst_ip, 6, t_len),
            );
            buf[t_start + 16..t_start + 18].copy_from_slice(&csum.to_be_bytes());
        }
        Transport::Udp => {
            buf.extend_from_slice(&u16::to_be_bytes(spec.src_port));
            buf.extend_from_slice(&u16::to_be_bytes(spec.dst_port));
            buf.extend_from_slice(&u16::to_be_bytes(t_len));
            buf.extend_from_slice(&u16::to_be_bytes(0)); // checksum placeholder
            buf.extend_from_slice(&spec.payload);
            let mut csum = checksum(
                &buf[t_start..],
                pseudo_header_sum(spec.src_ip, spec.dst_ip, 17, t_len),
            );
            if csum == 0 {
                csum = 0xffff; // RFC 768: transmitted as all-ones
            }
            buf[t_start + 6..t_start + 8].copy_from_slice(&csum.to_be_bytes());
        }
    }
    buf
}

/// Parse an Ethernet II frame built by [`build_frame`] (or any plain
/// IPv4/TCP/UDP frame without IP options), verifying checksums.
pub fn parse_frame(frame: &[u8]) -> Result<ParsedFrame, ParseError> {
    if frame.len() < ETH_HDR_LEN + IPV4_HDR_LEN {
        return Err(ParseError::Truncated);
    }
    let mut dst_mac = [0u8; 6];
    let mut src_mac = [0u8; 6];
    dst_mac.copy_from_slice(&frame[0..6]);
    src_mac.copy_from_slice(&frame[6..12]);
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(ParseError::NotIpv4);
    }
    let ip = &frame[ETH_HDR_LEN..];
    if ip[0] >> 4 != 4 {
        return Err(ParseError::BadIpHeader);
    }
    let ihl = ((ip[0] & 0x0f) as usize) * 4;
    if ihl < IPV4_HDR_LEN || ip.len() < ihl {
        return Err(ParseError::BadIpHeader);
    }
    if checksum(&ip[..ihl], 0) != 0 {
        return Err(ParseError::BadIpChecksum);
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if ip.len() < total_len || total_len < ihl {
        return Err(ParseError::Truncated);
    }
    let proto = ip[9];
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let transport_bytes = &ip[ihl..total_len];
    let t_len = transport_bytes.len() as u16;

    let (transport, src_port, dst_port, tcp_flags, payload_len) = match proto {
        6 => {
            if transport_bytes.len() < TCP_HDR_LEN {
                return Err(ParseError::Truncated);
            }
            if checksum(transport_bytes, pseudo_header_sum(src_ip, dst_ip, 6, t_len)) != 0 {
                return Err(ParseError::BadTransportChecksum);
            }
            let data_off = ((transport_bytes[12] >> 4) as usize) * 4;
            if data_off < TCP_HDR_LEN || transport_bytes.len() < data_off {
                return Err(ParseError::Truncated);
            }
            (
                Transport::Tcp,
                u16::from_be_bytes([transport_bytes[0], transport_bytes[1]]),
                u16::from_be_bytes([transport_bytes[2], transport_bytes[3]]),
                TcpFlags(transport_bytes[13]),
                transport_bytes.len() - data_off,
            )
        }
        17 => {
            if transport_bytes.len() < UDP_HDR_LEN {
                return Err(ParseError::Truncated);
            }
            let stored = u16::from_be_bytes([transport_bytes[6], transport_bytes[7]]);
            if stored != 0
                && checksum(
                    transport_bytes,
                    pseudo_header_sum(src_ip, dst_ip, 17, t_len),
                ) != 0
            {
                return Err(ParseError::BadTransportChecksum);
            }
            (
                Transport::Udp,
                u16::from_be_bytes([transport_bytes[0], transport_bytes[1]]),
                u16::from_be_bytes([transport_bytes[2], transport_bytes[3]]),
                TcpFlags::default(),
                transport_bytes.len() - UDP_HDR_LEN,
            )
        }
        other => return Err(ParseError::UnsupportedProtocol(other)),
    };

    Ok(ParsedFrame {
        src_mac: MacAddr(src_mac),
        dst_mac: MacAddr(dst_mac),
        src_ip,
        dst_ip,
        transport,
        src_port,
        dst_port,
        tcp_flags,
        payload_len,
        frame_len: ETH_HDR_LEN + total_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(transport: Transport, payload: Vec<u8>) -> FrameSpec {
        FrameSpec {
            src_mac: MacAddr::for_device(1),
            dst_mac: MacAddr::for_device(2),
            src_ip: Ipv4Addr::new(192, 168, 1, 10),
            dst_ip: Ipv4Addr::new(34, 120, 5, 6),
            transport,
            src_port: 50123,
            dst_port: 443,
            tcp_flags: TcpFlags::psh_ack(),
            payload,
            ttl: 64,
        }
    }

    #[test]
    fn tcp_roundtrip() {
        let s = spec(Transport::Tcp, b"hello iot".to_vec());
        let frame = build_frame(&s);
        assert_eq!(frame.len(), s.frame_len());
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.src_ip, s.src_ip);
        assert_eq!(p.dst_ip, s.dst_ip);
        assert_eq!(p.src_port, 50123);
        assert_eq!(p.dst_port, 443);
        assert_eq!(p.transport, Transport::Tcp);
        assert_eq!(p.tcp_flags, TcpFlags::psh_ack());
        assert_eq!(p.payload_len, 9);
        assert_eq!(p.frame_len, frame.len());
    }

    #[test]
    fn frames_match_golden_bytes() {
        // Pins the wire format itself: a change that build and parse
        // agree on would still pass the round-trip tests. Checksums were
        // computed independently of `checksum`.
        #[rustfmt::skip]
        let tcp: [u8; 56] = [
            0x02, 0xf1, 0xa7, 0x00, 0x00, 0x02, 0x02, 0xf1, 0xa7, 0x00, 0x00, 0x01, 0x08, 0x00,
            0x45, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x40, 0x00, 0x40, 0x06, 0x51, 0x9e,
            0xc0, 0xa8, 0x01, 0x0a, 0x22, 0x78, 0x05, 0x06,
            0xc3, 0xcb, 0x01, 0xbb, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
            0x50, 0x18, 0xff, 0xff, 0x98, 0xa8, 0x00, 0x00,
            b'h', b'i',
        ];
        #[rustfmt::skip]
        let udp: [u8; 45] = [
            0x02, 0xf1, 0xa7, 0x00, 0x00, 0x02, 0x02, 0xf1, 0xa7, 0x00, 0x00, 0x01, 0x08, 0x00,
            0x45, 0x00, 0x00, 0x1f, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x51, 0x9e,
            0xc0, 0xa8, 0x01, 0x0a, 0x22, 0x78, 0x05, 0x06,
            0xc3, 0xcb, 0x01, 0xbb, 0x00, 0x0b, 0x4d, 0x1f,
            0x01, 0x02, 0x03,
        ];
        assert_eq!(build_frame(&spec(Transport::Tcp, b"hi".to_vec())), tcp);
        assert_eq!(build_frame(&spec(Transport::Udp, vec![1, 2, 3])), udp);
    }

    #[test]
    fn udp_roundtrip() {
        let s = spec(Transport::Udp, vec![0xab; 100]);
        let frame = build_frame(&s);
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.transport, Transport::Udp);
        assert_eq!(p.payload_len, 100);
        assert_eq!(p.tcp_flags, TcpFlags::default());
    }

    #[test]
    fn empty_payload() {
        for t in [Transport::Tcp, Transport::Udp] {
            let s = spec(t, vec![]);
            let p = parse_frame(&build_frame(&s)).unwrap();
            assert_eq!(p.payload_len, 0);
        }
    }

    #[test]
    fn ip_checksum_corruption_detected() {
        let mut frame = build_frame(&spec(Transport::Tcp, b"x".to_vec()));
        frame[ETH_HDR_LEN + 8] ^= 0xff; // flip TTL
        assert_eq!(parse_frame(&frame), Err(ParseError::BadIpChecksum));
    }

    #[test]
    fn tcp_checksum_corruption_detected() {
        let mut frame = build_frame(&spec(Transport::Tcp, b"payload".to_vec()));
        let n = frame.len();
        frame[n - 1] ^= 0x01; // flip last payload byte
        assert_eq!(parse_frame(&frame), Err(ParseError::BadTransportChecksum));
    }

    #[test]
    fn udp_checksum_corruption_detected() {
        let mut frame = build_frame(&spec(Transport::Udp, b"payload".to_vec()));
        let n = frame.len();
        frame[n - 1] ^= 0x01;
        assert_eq!(parse_frame(&frame), Err(ParseError::BadTransportChecksum));
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut frame = build_frame(&spec(Transport::Tcp, vec![]));
        frame[12..14].copy_from_slice(&ETHERTYPE_ARP.to_be_bytes());
        assert_eq!(parse_frame(&frame), Err(ParseError::NotIpv4));
    }

    #[test]
    fn truncated_rejected() {
        let frame = build_frame(&spec(Transport::Tcp, vec![]));
        assert_eq!(parse_frame(&frame[..10]), Err(ParseError::Truncated));
        // Cutting into the TCP header invalidates the IP total length.
        assert_eq!(
            parse_frame(&frame[..ETH_HDR_LEN + IPV4_HDR_LEN + 4]),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn device_macs_are_unique() {
        let a = MacAddr::for_device(1);
        let b = MacAddr::for_device(2);
        let c = MacAddr::for_device(256);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data, 0), 0x220d);
    }
}
