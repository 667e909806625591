//! The [`det_proptest!`] macro — proptest-style property blocks.
//!
//! ```
//! use dettest::{det_proptest, Strategy};
//!
//! det_proptest! {
//!     #![det_config(cases = 64)]
//!
//!     // In a test file each property also carries `#[test]`.
//!     fn addition_commutes(a in 0i64..1000, b in 0i64..1000) {
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```
//!
//! Bodies use plain `assert!` / `assert_eq!`; the runner catches the panic,
//! shrinks, and reports a `DETTEST_SEED` to replay the failure.
//!
//! [`det_proptest!`]: crate::det_proptest

/// Define `#[test]` functions checked against generated inputs.
#[macro_export]
macro_rules! det_proptest {
    ( #![det_config($($cfg:tt)+)] $($rest:tt)* ) => {
        $crate::__det_proptest_impl! { { $($cfg)+ } $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__det_proptest_impl! { { } $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __det_proptest_impl {
    (
        $cfg:tt
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $crate::__det_config!($cfg);
                $crate::check(
                    stringify!($name),
                    __config,
                    ($($strat,)+),
                    |__case| {
                        let ($($arg,)+) = ::core::clone::Clone::clone(__case);
                        $body
                    },
                );
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __det_config {
    ( { } ) => {
        $crate::Config::default()
    };
    ( { $($field:ident = $value:expr),+ $(,)? } ) => {{
        #[allow(unused_mut)]
        let mut __c = $crate::Config::default();
        $( __c.$field = $value; )+
        __c
    }};
}
